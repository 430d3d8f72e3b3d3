package bench

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"time"
)

// readyLine is what a set-up-only process prints once its first op could
// start.
const readyLine = "ready"

// SetupOnly sets a workload up as a run would, prints readyLine to w, and
// tears it down again. It is the child side of MeasureSetup.
func SetupOnly(workload string, seed int64, w io.Writer) error {
	wl, err := findWorkload(workload)
	if err != nil {
		return err
	}
	inst, err := wl.open(seed)
	if err != nil {
		return err
	}
	defer inst.close()
	_, err = fmt.Fprintln(w, readyLine)
	return err
}

// MeasureSetup starts exe with `-setup-only -workload <workload> -seed
// <seed>` reps times, one process after another, and returns how long each
// took from process start to printing readyLine — what a user of a fresh
// process waits before the first op can start — scaled to the reference
// speed. Each process is waited for.
func MeasureSetup(ctx context.Context, exe, workload string, seed int64, reps int) ([]float64, error) {
	var out, calib []float64
	for i := 0; i < reps; i++ {
		calib = append(calib, calibrate())
		cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", workload, "-seed", strconv.FormatInt(seed, 10))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(stdout)
		ready := sc.Scan() && sc.Text() == readyLine
		d := time.Since(t0)
		io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil || !ready {
			return nil, fmt.Errorf("bench: set-up of %s: process did not report ready (%v)", workload, err)
		}
		out = append(out, d.Seconds())
	}
	s := calibRef / Median(calib)
	for i := range out {
		out[i] *= s
	}
	return out, nil
}
