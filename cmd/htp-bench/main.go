// Command htp-bench regenerates every table and figure of the
// HeapTherapy+ evaluation (Section VIII of the paper) and prints them
// in the paper's shape, alongside the paper's reported values.
//
// Usage:
//
//	htp-bench [-exp all|encoding|table2|table3|table4|fig8|fig9|services|ablation|guard|fleet|serve|campaign|telemetry|policy|tierup] [-quick] [-scale N] [-engine tree|compiled]
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

func run(args []string) error {
	fs := flag.NewFlagSet("htp-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, encoding, table2, table3, table4, fig8, fig9, services, concurrent, ablation, stackoffset, scaling, guard, fleet, serve, campaign, telemetry, policy, tierup")
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
	cfg := experiments.Config{Quick: *quick, Scale: *scale, Engine: engine}

	type runner struct {
		name string
		fn   func() (fmt.Stringer, error)
	}
	// tierUpResult captures the engine comparison so -json can record
	// the speedup and zero-alloc pin alongside the wall time.
	var tierUpResult *experiments.TierUpComparisonResult
	var campaignResult *experiments.CampaignThroughputResult
	var serveResult *experiments.ServeThroughputResult
	var policyResult *experiments.PolicyMatrixResult
	wrap := func(f func(experiments.Config) (interface{ Render() string }, error)) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) {
			r, err := f(cfg)
			if err != nil {
				return nil, err
			}
			return stringer{r.Render()}, nil
		}
	}

	all := []runner{
		{"table2", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.TableII(c)
		})},
		{"encoding", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.EncodingOverhead(c)
		})},
		{"table3", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.TableIII(c)
		})},
		{"table4", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.TableIV(c)
		})},
		{"fig8", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.Figure8(c)
		})},
		{"fig9", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.Figure9(c)
		})},
		{"services", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.Services(c)
		})},
		{"concurrent", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.ConcurrentServices(c)
		})},
		{"ablation", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.Ablation(c)
		})},
		{"stackoffset", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.StackOffsetBaseline(c)
		})},
		{"scaling", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.PatchScaling(c)
		})},
		{"fleet", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.Fleet(c)
		})},
		{"serve", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			r, err := experiments.ServeThroughput(c)
			if err == nil {
				serveResult = r
			}
			return r, err
		})},
		{"telemetry", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			return experiments.TelemetryOverhead(c)
		})},
		{"campaign", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			r, err := experiments.CampaignThroughput(c)
			if err == nil {
				campaignResult = r
			}
			return r, err
		})},
		{"policy", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			r, err := experiments.PolicyMatrix(c)
			if err == nil {
				policyResult = r
			}
			return r, err
		})},
		{"tierup", wrap(func(c experiments.Config) (interface{ Render() string }, error) {
			r, err := experiments.TierUpComparison(c)
			if err == nil {
				tierUpResult = r
			}
			return r, err
		})},
		{"guard", func() (fmt.Stringer, error) {
			global, targeted, err := experiments.GlobalGuardBaseline(cfg)
			if err != nil {
				return nil, err
			}
			return stringer{fmt.Sprintf(
				"Guard-page policy baseline (paper motivation: per-buffer guard pages are prohibitively expensive)\n"+
					"  guard every buffer:      +%.1f%% allocation-path cycles\n"+
					"  guard patched buffers:   +%.1f%% allocation-path cycles\n"+
					"  targeted saving:         %.1fx\n",
				global, targeted, global/targeted)}, nil
		}},
	}

	selected := strings.Split(*exp, ",")
	var results []benchResult
	ran := 0
	for _, r := range all {
		if *exp != "all" && !contains(selected, r.name) {
			continue
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := r.fn()
		elapsed := time.Since(start)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", r.name, err)
		}
		if *jsonOut {
			br := benchResult{
				Name:       r.name,
				NsOp:       elapsed.Nanoseconds(),
				AllocsOp:   after.Mallocs - before.Mallocs,
				BytesAlloc: after.TotalAlloc - before.TotalAlloc,
			}
			if r.name == "tierup" && tierUpResult != nil {
				br.Detail = map[string]float64{
					"geomean_vs_tree":        tierUpResult.GeomeanVsTree,
					"steady_state_allocs_op": tierUpResult.SteadyStateAllocs,
				}
			}
			if r.name == "serve" && serveResult != nil {
				best := 0.0
				for _, row := range serveResult.Rows {
					if row.ReqPerSec > best {
						best = row.ReqPerSec
					}
				}
				br.Detail = map[string]float64{
					"best_req_per_sec": best,
					"swap_p50_ns":      float64(serveResult.SwapP50.Nanoseconds()),
					"swap_p99_ns":      float64(serveResult.SwapP99.Nanoseconds()),
					"swaps":            float64(serveResult.SwapCount),
				}
			}
			if r.name == "policy" && policyResult != nil {
				br.Detail = map[string]float64{}
				for _, row := range policyResult.Rows {
					br.Detail[row.Family+"_contained_rate"] = row.ObservedRate
					br.Detail[row.Family+"_cycles_overhead_pct"] = row.OverheadPct
					br.Detail[row.Family+"_mem_overhead_pct"] = row.MemOverheadPct
				}
			}
			if r.name == "campaign" && campaignResult != nil {
				best := 0.0
				for _, row := range campaignResult.Rows {
					if row.SeedsPerSec > best {
						best = row.SeedsPerSec
					}
				}
				br.Detail = map[string]float64{
					"sequential_seeds_per_sec": campaignResult.SequentialSeedsPerSec,
					"best_seeds_per_sec":       best,
					"speedup":                  best / campaignResult.SequentialSeedsPerSec,
				}
			}
			results = append(results, br)
		} else {
			fmt.Println(out.String())
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
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
	// Detail carries experiment-specific headline numbers (the tierup
	// experiment's geomean speedup and zero-alloc pin, and the serve,
	// policy, and campaign throughput summaries).
	Detail map[string]float64 `json:"detail,omitempty"`
}

type stringer struct{ s string }

func (s stringer) String() string { return s.s }

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
