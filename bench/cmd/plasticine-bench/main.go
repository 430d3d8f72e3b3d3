// Command plasticine-bench runs the repository's benchmark.
//
//	plasticine-bench -workload table7 -seed 1 -seconds 20 -trace 0
//
// runs one workload in this process and prints its result as the last line
// of standard output, a JSON object with the keys correct, attempted,
// failed and metrics; a human-readable summary goes to standard error.
// Without -workload it runs every workload, each in its own child process.
// -trace 1 makes a traced run, which reports the per-layer metrics instead
// of the end-to-end ones; -trace-out writes its spans as JSON lines.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"

	"plasticine/bench"
)

// setupReps is how many set-up-only processes setup_s is the median of.
const setupReps = 31

func main() {
	workload := flag.String("workload", "", "workload to run; empty runs all of them, each in its own process")
	seed := flag.Int64("seed", 1, "input seed: op order, fault-plan seed and request stream")
	seconds := flag.Float64("seconds", 20, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 for a traced run, which reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "traced run: write the spans to this file as JSON lines")
	out := flag.String("out", "", "also write each run's record to a JSON file in this directory")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print \"ready\" and exit (how setup_s is timed)")
	flag.Parse()
	if (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *workload == "" {
		os.Exit(runAll(ctx, *seed, *seconds, *trace, *traceOut, *out))
	}
	if *setupOnly {
		if err := bench.SetupOnly(*workload, *seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	var setups []float64
	if *trace == 0 {
		self, err := os.Executable()
		if err == nil {
			setups, err = bench.MeasureSetup(ctx, self, *workload, *seed, setupReps)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	rec, err := bench.Run(ctx, bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Traced:   *trace == 1,
		TraceOut: *traceOut,
		Log:      os.Stderr,
		Setup:    setups,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeRecord stores rec as <dir>/<workload>-seed<N>-trace<T>.json, the
// layout bench-compare reads.
func writeRecord(dir string, rec *bench.Record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// runAll runs every workload in a child process of this binary, one after
// another, and prints each one's result line prefixed by its name. It
// returns the exit code: 0 only if every run finished and was correct.
func runAll(ctx context.Context, seed int64, seconds float64, trace int, traceOut, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, w := range bench.Workloads() {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut+"."+w)
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		var stdout bytes.Buffer
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w, err)
			code = 1
			continue
		}
		var last string
		for sc := bufio.NewScanner(&stdout); sc.Scan(); {
			last = sc.Text()
		}
		var res bench.Result
		if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct {
			code = 1
		}
		fmt.Printf("%s %s\n", w, last)
	}
	return code
}
