// Command htp-bench regenerates every table and figure of the
// HeapTherapy+ evaluation (Section VIII of the paper) and prints them
// in the paper's shape, alongside the paper's reported values.
//
// Usage:
//
//	htp-bench [-exp all|table2|encoding|table3|table4|fig8|fig9|services|concurrent|ablation|stackoffset|scaling|fleet|telemetry|policy|guard[,...]] [-quick] [-scale N] [-engine tree|compiled] [-json]
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
	"heaptherapy/internal/prog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "htp-bench:", err)
		os.Exit(1)
	}
}

// result is what every experiment returns: a table in the paper's shape.
type result interface{ Render() string }

// detailer is implemented by results with headline numbers for -json.
type detailer interface{ Detail() map[string]float64 }

// exp adapts a typed experiment to the table's signature. A failed run
// yields an untyped nil result, never a nil pointer in an interface.
func exp[R result](f func(experiments.Config) (R, error)) func(experiments.Config) (result, error) {
	return func(c experiments.Config) (result, error) {
		r, err := f(c)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// experimentTable lists every experiment in run order.
var experimentTable = []struct {
	name string
	run  func(experiments.Config) (result, error)
}{
	{"table2", exp(experiments.TableII)},
	{"encoding", exp(experiments.EncodingOverhead)},
	{"table3", exp(experiments.TableIII)},
	{"table4", exp(experiments.TableIV)},
	{"fig8", exp(experiments.Figure8)},
	{"fig9", exp(experiments.Figure9)},
	{"services", exp(experiments.Services)},
	{"concurrent", exp(experiments.ConcurrentServices)},
	{"ablation", exp(experiments.Ablation)},
	{"stackoffset", exp(experiments.StackOffsetBaseline)},
	{"scaling", exp(experiments.PatchScaling)},
	{"fleet", exp(experiments.Fleet)},
	{"telemetry", exp(experiments.TelemetryOverhead)},
	{"policy", exp(experiments.PolicyMatrix)},
	{"guard", exp(experiments.GlobalGuardBaseline)},
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
	jsonOut := fs.Bool("json", false, "emit per-experiment wall time and allocations as JSON instead of rendered tables")
	engineName := fs.String("engine", "compiled", "execution engine for measured runs: tree or compiled (results are bit-identical; compiled is faster)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine, err := prog.ParseEngine(*engineName)
	if err != nil {
		return err
	}
	selected, err := selectExperiments(*expList)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Quick: *quick, Scale: *scale, Engine: engine}

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
			fmt.Println(r.Render())
			continue
		}
		br := benchResult{
			Name:       e.name,
			NsOp:       elapsed.Nanoseconds(),
			AllocsOp:   after.Mallocs - before.Mallocs,
			BytesAlloc: after.TotalAlloc - before.TotalAlloc,
		}
		if d, ok := r.(detailer); ok {
			br.Detail = d.Detail()
		}
		results = append(results, br)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(benchReport{
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Engine:      engine.String(),
			Quick:       *quick,
			Experiments: results,
		})
	}
	return nil
}

// benchReport is the machine-readable output of -json: one timing
// record per experiment, suitable for committed BENCH_*.json baselines
// and cross-run comparison.
type benchReport struct {
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Engine      string        `json:"engine"`
	Quick       bool          `json:"quick"`
	Experiments []benchResult `json:"experiments"`
}

type benchResult struct {
	Name       string `json:"name"`
	NsOp       int64  `json:"ns_op"`
	AllocsOp   uint64 `json:"allocs_op"`
	BytesAlloc uint64 `json:"bytes_alloc"`
	// Detail carries the headline numbers of results that implement
	// detailer (the policy matrix's per-family rates).
	Detail map[string]float64 `json:"detail,omitempty"`
}
