// Command htp-bench regenerates every table and figure of the
// HeapTherapy+ evaluation (Section VIII of the paper) and prints them
// in the paper's shape, alongside the paper's reported values.
//
// Usage:
//
//	htp-bench [-exp all|table2|encoding|table3|table4|fig8|fig9|services|concurrent|ablation|stackoffset|scaling|policy|guard[,...]] [-quick] [-scale N] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"heaptherapy/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "htp-bench:", err)
		os.Exit(1)
	}
}

// experimentTable lists every experiment in run order.
var experimentTable = []struct {
	name string
	run  func(experiments.Config) (*experiments.Result, error)
}{
	{"table2", experiments.TableII},
	{"encoding", experiments.EncodingOverhead},
	{"table3", experiments.TableIII},
	{"table4", experiments.TableIV},
	{"fig8", experiments.Figure8},
	{"fig9", experiments.Figure9},
	{"services", experiments.Services},
	{"concurrent", experiments.ConcurrentServices},
	{"ablation", experiments.Ablation},
	{"stackoffset", experiments.StackOffsetBaseline},
	{"scaling", experiments.PatchScaling},
	{"policy", experiments.PolicyMatrix},
	{"guard", experiments.GlobalGuardBaseline},
}

// experimentNames is "all" followed by every table name.
func experimentNames() string {
	names := []string{"all"}
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ")
}

// selectExperiments parses -exp: "all", or a comma list in which every
// name must be in experimentTable.
func selectExperiments(spec string) (map[string]bool, error) {
	known := make(map[string]bool, len(experimentTable))
	for _, e := range experimentTable {
		known[e.name] = true
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		if name != "all" && !known[name] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, experimentNames())
		}
		want[name] = true
	}
	if want["all"] {
		return known, nil
	}
	return want, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("htp-bench", flag.ContinueOnError)
	expList := fs.String("exp", "all", "comma-separated experiments to run: "+experimentNames())
	quick := fs.Bool("quick", false, "trim sweeps for a fast run")
	scale := fs.Uint64("scale", 0, "divisor for Table IV allocation counts (default 10000)")
	jsonOut := fs.Bool("json", false, "emit per-experiment wall time, allocations and metrics as JSON instead of rendered tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := selectExperiments(*expList)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Quick: *quick, Scale: *scale}

	var results []benchResult
	for _, e := range experimentTable {
		if !selected[e.name] {
			continue
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r, err := e.run(cfg)
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.name, err)
		}
		if !*jsonOut {
			fmt.Println(r.Text)
			continue
		}
		results = append(results, benchResult{
			Name:       e.name,
			NsOp:       elapsed.Nanoseconds(),
			AllocsOp:   after.Mallocs - before.Mallocs,
			BytesAlloc: after.TotalAlloc - before.TotalAlloc,
			Detail:     r.Metrics,
		})
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(benchReport{
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Quick:       *quick,
			Experiments: results,
		})
	}
	return nil
}

// benchReport is the machine-readable output of -json: one record per
// experiment, its timing and its named metrics, suitable for committed
// BENCH_*.json baselines and cross-run comparison.
type benchReport struct {
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Quick       bool          `json:"quick"`
	Experiments []benchResult `json:"experiments"`
}

// benchResult is one experiment's record: the wall time and heap
// allocations of the whole experiment, and its Result.Metrics.
type benchResult struct {
	Name       string `json:"name"`
	NsOp       int64  `json:"ns_op"`
	AllocsOp   uint64 `json:"allocs_op"`
	BytesAlloc uint64 `json:"bytes_alloc"`
	// Detail is the experiment's Result.Metrics, keyed by metric name.
	Detail map[string]float64 `json:"detail,omitempty"`
}
