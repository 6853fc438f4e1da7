// Command benchmark is the repository's performance benchmark: one
// command that runs a workload against the system's public packages for
// a fixed time, checks every output, and prints end-to-end metrics (or,
// with -trace 1, per-layer metrics from a traced run) by name and unit.
// The last line of its output is a JSON summary.
//
// From the repository root:
//
//	bash benchmark/run.sh -workload spec -seed 1 -seconds 10 -trace 0
//	bash benchmark/run.sh -workload all -count 5 -out new.json
//	bash benchmark/run.sh -compare old.json new.json
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+" (or all, with -count)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1: traced run, reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans to this file as JSON lines")
	count := fs.Int("count", 0, "run each workload this many times, seeds seed, seed+1, ..., each in a fresh process")
	out := fs.String("out", "", "with -count: write the report to this JSON file")
	compare := fs.Bool("compare", false, "compare two -count reports with the bounds in "+specFile+": -compare old.json new.json")
	short := fs.Bool("short", false, "tiny sizes, for smoke runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare old.json new.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	}
	cfg := &config{
		workload: *wl,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		size:     fullSizes,
	}
	if *short {
		cfg.size = tinySizes
	}
	if *count > 0 {
		return runCount(cfg, *count, *short, *out, stdout, stderr)
	}
	if _, err := workloadByName(cfg.workload); err != nil {
		fmt.Fprintf(stderr, "%v (want one of %s)\n", err, strings.Join(names, ", "))
		return 2
	}
	line, err := runOnce(cfg, *traceOut, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := writeJSON(stdout, line); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// runOnce runs one workload once and prints its report, all but the
// result line, which it returns.
func runOnce(cfg *config, traceOut string, w io.Writer) (resultLine, error) {
	runtime.GOMAXPROCS(nproc())
	newHeader(cfg).print(w)
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return resultLine{}, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	o, err := wl.run(cfg, tr)
	if err != nil {
		return resultLine{}, err
	}
	if !cfg.trace {
		fmt.Fprint(w, "# latency")
		for _, q := range latencyQuantiles {
			fmt.Fprintf(w, "  %s %.6g ms", strings.TrimPrefix(q.name, "loadgen."), o.metrics[q.name])
		}
		fmt.Fprintf(w, "  (n=%d)\n", o.samples[latencyQuantiles[0].name])
		return emit(w, o, endToEnd), nil
	}
	layerMetrics(tr, o)
	line := emit(w, o, perLayer)
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return resultLine{}, err
		}
	}
	return line, nil
}
