package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. The tables below and
// BENCHMARK.json must list the same names, units and directions;
// TestBenchmarkJSON keeps them in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// det marks a metric that repeats exactly for a given seed (counts
	// and virtual cycles from fixed-size replays); -compare requires
	// such metrics to match exactly.
	det bool
}

// endToEnd are the user-visible metrics every workload reports from
// its untraced run. Each workload defines what its throughput counts
// (README.md, "Workloads"): HTTP requests, rollout episodes, defended
// program runs or campaign seeds. The latency percentiles are not among
// them: on the reference host their run-to-run spread exceeds the
// widest bound BENCHMARK.json allows (README.md, "Noise"); the untraced
// run prints them and the traced run reports them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "mem_heap_mb", unit: "MB", better: "lower"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. A
// layer a workload never reaches reports 0. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{name: "http.overhead_us_p50", unit: "us", better: "lower"},
	{name: "serve.handler_us_p50", unit: "us", better: "lower"},
	{name: "serve.handler_us_p99", unit: "us", better: "lower"},
	{name: "serve.new_ms", unit: "ms", better: "lower"},
	{name: "serve.rejected", unit: "count", better: "lower"},
	{name: "serve.bundle_drops", unit: "count", better: "lower"},
	{name: "serve.rollout_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.pickup_ms_p50", unit: "ms", better: "lower"},
	{name: "analysis.analyze_ms_p50", unit: "ms", better: "lower"},
	{name: "analysis.analyze_ms_p90", unit: "ms", better: "lower"},
	{name: "analysis.patches", unit: "count", better: "lower", det: true},
	{name: "fleet.sync_ns_p50", unit: "ns", better: "lower"},
	{name: "fleet.finish_us_p50", unit: "us", better: "lower"},
	{name: "fleet.swap_us_p50", unit: "us", better: "lower"},
	{name: "fleet.contexts_built", unit: "count", better: "lower", det: true},
	{name: "fleet.resets", unit: "count", better: "lower", det: true},
	{name: "prog.run_us_p50", unit: "us", better: "lower"},
	{name: "prog.self_ns_per_step", unit: "ns", better: "lower"},
	{name: "prog.new_exec_us", unit: "us", better: "lower"},
	{name: "prog.steps", unit: "count", better: "lower", det: true},
	{name: "prog.interp_cycles", unit: "count", better: "lower", det: true},
	{name: "encoding.plan_ms", unit: "ms", better: "lower"},
	{name: "encoding.instrumented_sites", unit: "count", better: "lower", det: true},
	{name: "defense.alloc_ns", unit: "ns", better: "lower"},
	{name: "defense.free_ns", unit: "ns", better: "lower"},
	{name: "defense.memop_ns", unit: "ns", better: "lower"},
	{name: "defense.lookups", unit: "count", better: "lower", det: true},
	{name: "defense.patched_allocs", unit: "count", better: "lower", det: true},
	{name: "defense.guard_pages", unit: "count", better: "lower", det: true},
	{name: "defense.deferred_frees", unit: "count", better: "lower", det: true},
	{name: "defense.zero_fills", unit: "count", better: "lower", det: true},
	{name: "defense.cycles", unit: "count", better: "lower", det: true},
	{name: "defense.cycle_overhead_pct", unit: "%", better: "lower", det: true},
	{name: "heapsim.malloc_ns", unit: "ns", better: "lower"},
	{name: "heapsim.free_ns", unit: "ns", better: "lower"},
	{name: "heapsim.calls", unit: "count", better: "lower", det: true},
	{name: "mem.memop_cycles", unit: "count", better: "lower", det: true},
	{name: "mem.space_new_us", unit: "us", better: "lower"},
	{name: "campaign.generate_us_p50", unit: "us", better: "lower"},
	{name: "campaign.check_ms_p50", unit: "ms", better: "lower"},
	{name: "campaign.worker_busy_pct", unit: "%", better: "higher"},
	{name: "loadgen.latency_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.latency_p90_ms", unit: "ms", better: "lower"},
	{name: "loadgen.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.requests", unit: "count", better: "higher"},
	{name: "loadgen.attack_requests", unit: "count", better: "higher"},
	{name: "loadgen.benign_p50_us", unit: "us", better: "lower"},
	{name: "loadgen.benign_p99_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// Latency histogram buckets grow by histGrowth from histMinMs, so a
// quantile is exact to within 0.1%, up to histMaxMs.
const (
	histMinMs  = 1e-4
	histMaxMs  = 1e5
	histGrowth = 1.001
)

var latBuckets = int(math.Ceil(math.Log(histMaxMs/histMinMs)/math.Log(histGrowth))) + 1

// hist holds latencies in ms in log-scale buckets: fixed memory however
// many requests a run makes, so recording them does not grow the heap
// that mem_heap_mb measures.
type hist struct {
	counts []uint32
	n      int
}

func newHist() *hist { return &hist{counts: make([]uint32, latBuckets)} }

func (h *hist) add(ms float64) {
	i := 0
	if ms > histMinMs {
		i = min(int(math.Log(ms/histMinMs)/math.Log(histGrowth)), latBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// merge adds every latency of u to h.
func (h *hist) merge(u *hist) {
	for i, c := range u.counts {
		h.counts[i] += c
	}
	h.n += u.n
}

// quantile returns the nearest-rank p-quantile (0 < p <= 1) as its
// bucket's geometric midpoint, or 0 when h is empty.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, int(math.Ceil(p*float64(h.n))))
	seen := 0
	for i, c := range h.counts {
		if seen += int(c); seen >= rank {
			return histMinMs * math.Pow(histGrowth, float64(i)+0.5)
		}
	}
	return histMaxMs
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v, or
// 0 when v is empty.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value (mean of the middle two for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the same rule as Python's
// statistics.quantiles(v, n=4) (the "exclusive" method), so spreads
// printed here match the ones the acceptance check computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
