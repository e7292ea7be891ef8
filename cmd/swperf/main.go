// Command swperf is the repository's benchmark. It builds cmd/swserve from
// the checkout, runs it as a separate process for each workload, drives it
// over loopback from this one process with at most two connections, checks
// every final answer against an in-process replay of the same admitted
// batches, and prints each metric by name with its unit:
//
//	go run . -workload flows-durable -seed 7           (from cmd/swperf)
//	bash cmd/swperf/run.sh --workload all --seed 7     (from the repository root)
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1, or -trace FILE) runs the nominal phase with client spans on,
// adds a crash and recovery and a closed-loop peak, replays the
// workload's generated batches through each layer's public entry point
// (the per-layer ladder), reports the per-layer metrics, and writes every
// span to FILE (default <build-dir>/trace-<workload>-<seed>.json).
//
// Each metric is printed as one JSON line {workload, metric, value, unit,
// n}; the last line is {correct, attempted, failed, metrics}. The exit
// status is non-zero when any output check fails. README.md lists the
// workloads, the metrics and which layer each one measures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("workload", "all", "workload to run: flows-durable, bulk-ndjson, query-fanout, tenants-zipf or all")
		seed     = fs.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 15, "load seconds per workload: 20% warm-up, 80% nominal; the traced run adds a 25% peak")
		scale    = fs.Float64("scale", 1, "multiplies every phase length and input size (the smoke test runs 0.01)")
		trace    = fs.String("trace", "0", `"0": untraced run; "1" or a file path: traced run writing its spans there`)
		root     = fs.String("root", "", "repository root (default: the nearest ancestor of the working directory holding cmd/swserve)")
		buildDir = fs.String("build-dir", "", "directory for the swserve binary, state dirs and traces (default <root>/.bench_build)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "swperf:", err)
		return 1
	}
	var selected []*workload
	if *only == "all" {
		selected = workloads
	} else if w := workloadByName(*only); w != nil {
		selected = []*workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *only))
	}
	if !(*seconds > 0) || !(*scale > 0) {
		return fail(errors.New("-seconds and -scale must be positive"))
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			return fail(err)
		}
		*root = r
	}
	if *buildDir == "" {
		*buildDir = filepath.Join(*root, ".bench_build")
	}
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		return fail(err)
	}
	done := make(chan struct{})
	defer close(done)
	stopOnSignal(done)
	bin, err := buildServer(*root, *buildDir)
	if err != nil {
		return fail(err)
	}

	b := &bench{bin: bin, buildDir: *buildDir, seed: *seed, seconds: *seconds, scale: *scale, rep: &report{out: stdout}}
	defs, tracePath := endToEnd, ""
	if *trace != "0" {
		defs, tracePath, b.tr = perLayer, *trace, newTracer()
		if tracePath == "1" {
			tracePath = filepath.Join(*buildDir, "trace-"+*only+"-"+strconv.FormatUint(*seed, 10)+".json")
		}
	}
	var names []string
	for _, w := range selected {
		names = append(names, w.name)
		var err error
		if b.tr != nil {
			err = b.runTraced(w)
		} else {
			err = b.runE2E(w)
		}
		if err != nil {
			return fail(err)
		}
	}
	if b.tr != nil {
		if err := b.tr.write(tracePath); err != nil {
			return fail(err)
		}
	}
	line, err := b.rep.summary(names, defs)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if len(b.rep.problems) > 0 {
		fmt.Fprintf(stderr, "swperf: %d output check(s) failed\n", len(b.rep.problems))
		return 1
	}
	return 0
}
