package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"time"
)

// header records where and how a run was made.
type header struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
}

func newHeader(cfg *config) header {
	return header{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.measure.Seconds(),
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %g  trace %v\n", h.Workload, h.Seed, h.Seconds, h.Trace)
	fmt.Fprintf(w, "# nproc %d  GOMAXPROCS %d  cpu %q  %s  commit %s\n", h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.Commit)
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from: the build's VCS
// stamp, else `git rev-parse HEAD`, else "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// jsonMetric and resultLine are the run's last output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// layerMetrics derives the per-layer metrics the spans carry. Metrics a
// workload already set are kept.
func layerMetrics(tr *tracer, o *outcome) {
	type spanMetric struct {
		metric, span string
		unit         time.Duration
		q            float64
	}
	for _, m := range []spanMetric{
		{"serve.new_ms", "serve.new", time.Millisecond, 0.5},
		{"analysis.analyze_ms_p50", "analysis.analyze", time.Millisecond, 0.5},
		{"analysis.analyze_ms_p90", "analysis.analyze", time.Millisecond, 0.9},
		{"fleet.sync_ns_p50", "fleet.sync", time.Nanosecond, 0.5},
		{"fleet.finish_us_p50", "fleet.finish", time.Microsecond, 0.5},
		{"fleet.swap_us_p50", "fleet.swap", time.Microsecond, 0.5},
		{"prog.run_us_p50", "prog.run", time.Microsecond, 0.5},
		{"prog.new_exec_us", "prog.new_exec", time.Microsecond, 0.5},
		{"encoding.plan_ms", "encoding.plan", time.Millisecond, 0.5},
		{"mem.space_new_us", "mem.space_new", time.Microsecond, 0.5},
		{"campaign.generate_us_p50", "campaign.generate", time.Microsecond, 0.5},
		{"campaign.check_ms_p50", "campaign.check", time.Millisecond, 0.5},
	} {
		v := tr.durations(m.span, m.unit)
		if _, set := o.metrics[m.metric]; set || len(v) == 0 {
			continue
		}
		if m.q == 0.5 {
			o.metrics[m.metric] = median(v)
		} else {
			o.metrics[m.metric] = percentile(v, m.q)
		}
		o.samples[m.metric] = len(v)
	}

	// HTTP overhead: client latency minus handler time, per request.
	handler := map[uint64]int64{}
	var hd []float64
	for _, s := range tr.named("serve.handler") {
		handler[s.Parent] = s.dur()
		hd = append(hd, float64(s.dur())/1e3)
	}
	var over []float64
	for _, s := range tr.named("http.request") {
		if h, ok := handler[s.ID]; ok {
			over = append(over, float64(s.dur()-h)/1e3)
		}
	}
	if len(hd) > 0 {
		o.metrics["serve.handler_us_p50"] = median(hd)
		o.metrics["serve.handler_us_p99"] = percentile(hd, 0.99)
		o.samples["serve.handler_us_p50"] = len(hd)
		o.samples["serve.handler_us_p99"] = len(hd)
	}
	if len(over) > 0 {
		o.metrics["http.overhead_us_p50"] = median(over)
		o.samples["http.overhead_us_p50"] = len(over)
	}

	// Per-operation costs, and the executor's own time per statement:
	// a Run's duration minus the backend calls it made.
	kind := map[string]opKind{}
	for k, n := range opNames {
		kind[n] = opKind(k)
	}
	var agg [numOps]opAgg
	var runSelf int64
	var steps uint64
	self := tr.selfTimes()
	tr.mu.Lock()
	for _, s := range tr.spans {
		for _, op := range s.Ops {
			a := &agg[kind[op.Name]]
			a.Count += op.Count
			a.Ns += op.Ns
			a.SelfNs += op.SelfNs
		}
		if s.Name == "prog.run" {
			runSelf += self[s.ID]
			steps += s.Steps
		}
	}
	tr.mu.Unlock()
	perOp := func(ns int64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	o.metrics["defense.alloc_ns"] = perOp(agg[opAlloc].SelfNs, agg[opAlloc].Count)
	o.metrics["defense.free_ns"] = perOp(agg[opFree].SelfNs, agg[opFree].Count)
	o.metrics["defense.memop_ns"] = perOp(agg[opMemop].SelfNs, agg[opMemop].Count)
	o.metrics["heapsim.malloc_ns"] = perOp(agg[opMalloc].Ns, agg[opMalloc].Count)
	o.metrics["heapsim.free_ns"] = perOp(agg[opRelease].Ns, agg[opRelease].Count)
	o.metrics["prog.self_ns_per_step"] = perOp(runSelf, steps)
}

// emit prints the run's metrics, one per line with unit and sample
// count, and returns the result line.
func emit(w io.Writer, o *outcome, table []metricDef) resultLine {
	line := resultLine{
		Correct:   o.checks.failed == 0,
		Attempted: o.checks.attempted,
		Failed:    o.checks.failed,
		Metrics:   map[string]jsonMetric{},
	}
	fmt.Fprintf(w, "# engine %s\n", o.engine)
	for _, d := range table {
		v := o.metrics[d.name]
		line.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		n := ""
		if c, ok := o.samples[d.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-30s %14.6g %-6s%s\n", d.name, v, d.unit, n)
	}
	fmt.Fprintf(w, "# checks: %d attempted, %d failed\n", o.checks.attempted, o.checks.failed)
	for _, m := range o.checks.msgs {
		fmt.Fprintf(w, "# FAIL %s\n", m)
	}
	return line
}

// liveHeapMB forces a collection and returns the Go heap then live
// (runtime/metrics /gc/heap/live:bytes) in MiB. Each workload calls it
// once, after its measured window, at a point where a unit of its work
// holds all its state (mem_heap_mb). Sampling the live heap through a
// run instead repeats poorly: collections fall at a point of the work
// that depends on the allocation pattern and drifts with host speed
// (README.md, "Design choices").
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
