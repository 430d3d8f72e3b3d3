package core

import (
	"context"
	"fmt"
	"testing"

	"plasticine/internal/arch"
	"plasticine/internal/sim"
	"plasticine/internal/workloads"
)

// BenchmarkScale reports the speedup over the FPGA baseline of Table 7's
// compute-bound rows as their datasets grow: GEMM's inner dimension, GDA's
// point count and CNN's image side, each instance otherwise the registry's.
// It calls runBenchmark on the instances themselves: Session.RunBenchmark
// looks a registry name up afresh and would run the default instance.
//
//	go test -run '^$' -bench Scale -benchtime 1x ./internal/core/
func BenchmarkScale(b *testing.B) {
	var cases []workloads.Benchmark
	for _, k := range []int{256, 512, 1024, 2048} {
		w := workloads.NewGEMM()
		w.N = k
		cases = append(cases, w)
	}
	for _, n := range []int{4096, 16384, 65536} {
		w := workloads.NewGDA()
		w.N = n
		cases = append(cases, w)
	}
	for _, img := range []int{32, 64, 128} {
		w := workloads.NewCNN()
		w.Img = img
		cases = append(cases, w)
	}
	for _, w := range cases {
		b.Run(scaleName(w), func(b *testing.B) {
			var r *BenchResult
			for i := 0; i < b.N; i++ {
				var err error
				if r, err = runBenchmark(context.Background(), arch.Default(), w, nil, sim.Options{}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(r.Speedup, "speedup")
		})
	}
}

// scaleName names a BenchmarkScale instance by the dimension that grows.
func scaleName(w workloads.Benchmark) string {
	switch w := w.(type) {
	case *workloads.GEMM:
		return fmt.Sprintf("GEMM-%dx%dx%d", w.M, w.N, w.P)
	case *workloads.GDA:
		return fmt.Sprintf("GDA-%dpoints", w.N)
	case *workloads.CNN:
		return fmt.Sprintf("CNN-%dx%d", w.Img, w.Img)
	}
	return w.Name()
}
