package main

import (
	"fmt"
	"runtime"
	"time"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/prog"
)

// config is one benchmark run: a workload, its seed, how long to
// measure, and whether this is the traced run.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	trace    bool
	size     sizes
}

// sizes fixes the work outside the timed window. full is what the
// command runs; tiny keeps the smoke test under a few seconds.
type sizes struct {
	setups         int           // set-ups per run; setup_s is their median
	serveWarm      int           // warm-up requests per serve-steady set-up
	serveReplay    int           // requests replayed through the fleet when traced
	rolloutWarm    int           // warm-up episodes per serve-rollout set-up
	rolloutReplay  int           // episodes replayed through the fleet when traced
	rolloutGap     time.Duration // benign-only traffic before and after the attack
	specScale      uint64        // workload.ProgramConfig.Scale (0 = library default)
	churnAllocs    uint64        // allocations per alloc-churn run
	campaignWarm   uint64        // warm-up seeds per campaign set-up
	campaignBatch  uint64        // seeds per timed campaign.Run call
	campaignReplay int           // seeds replayed through the public sequence when traced
}

var (
	fullSizes = sizes{
		setups: 5, serveWarm: 1000, serveReplay: 2000,
		rolloutWarm: 3, rolloutReplay: 20, rolloutGap: 5 * time.Millisecond,
		churnAllocs:  260_000,
		campaignWarm: 200, campaignBatch: 100, campaignReplay: 40,
	}
	tinySizes = sizes{
		setups: 2, serveWarm: 20, serveReplay: 20,
		rolloutWarm: 1, rolloutReplay: 2, rolloutGap: time.Millisecond,
		specScale: 1_000_000, churnAllocs: 4000,
		campaignWarm: 8, campaignBatch: 8, campaignReplay: 4,
	}
)

// outcome is what a workload reports: the checks it made and its
// metrics (end-to-end untraced, per-layer traced).
type outcome struct {
	engine  string
	checks  tally
	metrics map[string]float64
	// samples is the sample count behind each percentile metric.
	samples map[string]int
}

func newOutcome(engine string) *outcome {
	return &outcome{engine: engine, metrics: map[string]float64{}, samples: map[string]int{}}
}

// record stores the untraced measurement of the workload's unit of
// work: the throughput the meter saw, and the median, 90th and 99th
// percentiles of the units' latencies in ms.
func (o *outcome) record(lat *hist, m *meter) {
	rates := m.rates()
	o.metrics["throughput_per_s"] = median(rates)
	o.samples["throughput_per_s"] = len(rates)
	for _, q := range latencyQuantiles {
		o.metrics[q.name] = lat.quantile(q.p)
		o.samples[q.name] = lat.n
	}
}

// meterBlocks is how many blocks a meter splits its window into.
const meterBlocks = 20

// meter records units of work completing in a measured window. Its rate
// is the median over blocks of at least window/meterBlocks, each closed
// at a completion, of the units completed per second of the block: a
// host hiccup that stalls part of a run moves a block or two, not the
// median. It keeps only the blocks' rates, so that its memory does not
// grow with the work done.
type meter struct {
	start, from, last time.Time // window start, block start, last completion
	window            time.Duration
	ticks, n          int       // completions so far, units in the open block
	blocks            []float64 // closed blocks' rates, units/s
}

func newMeter(window time.Duration) *meter {
	now := time.Now()
	return &meter{start: now, from: now, window: window}
}

// tick records the completion of n units now.
func (m *meter) tick(n int) {
	m.last = time.Now()
	m.ticks++
	m.n += n
	if d := m.last.Sub(m.from); d >= m.window/meterBlocks {
		m.blocks = append(m.blocks, float64(m.n)/d.Seconds())
		m.from, m.n = m.last, 0
	}
}

// running reports whether the window is still open or nothing has
// completed yet.
func (m *meter) running() bool {
	return m.ticks == 0 || time.Since(m.start) < m.window
}

// rates are the blocks' rates in units per second. The open, partial
// block counts only when no block closed.
func (m *meter) rates() []float64 {
	if len(m.blocks) == 0 && m.n > 0 {
		return []float64{float64(m.n) / m.last.Sub(m.from).Seconds()}
	}
	return m.blocks
}

// latencyQuantiles are the latency percentiles every workload reports.
var latencyQuantiles = []struct {
	name string
	p    float64
}{
	{"loadgen.latency_p50_ms", 0.5},
	{"loadgen.latency_p90_ms", 0.9},
	{"loadgen.latency_p99_ms", 0.99},
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	run  func(cfg *config, tr *tracer) (*outcome, error)
}

// workloads are the benchmark's workloads, in report order.
var workloads = []workloadDef{
	{"serve-steady", "online path: HTTP, admission, fleet recycle, dispatch and a patch-table read per allocation", runServeSteady},
	{"serve-rollout", "patch-table writes: wild crash, re-analysis, SwapTable and pickup, with benign traffic alongside", runServeRollout},
	{"spec", "paper overhead workload: ~60 statements per allocation, so engine dispatch dominates", runSpec},
	{"alloc-churn", "~5.5 statements per allocation with 15 patches: defense, lookup, guard pages and heapsim dominate", runAllocChurn},
	{"campaign", "many tiny programs: generation, shadow analysis, construction and Reset dominate", runCampaign},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// nproc is the load generator's parallelism: serve workers, campaign
// workers and GOMAXPROCS all equal it.
func nproc() int { return runtime.NumCPU() }

// repeatSetup builds the workload's state n times, tearing down all but
// the last, and returns it with the median set-up time in seconds.
func repeatSetup[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var st T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(st)
		}
		runtime.GC()
		start := time.Now()
		var err error
		if st, err = build(); err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return st, median(secs), nil
}

// newCoder builds the calling-context coder the library builds by
// default (Incremental plan, PCC arithmetic), as an encoding.plan span.
func newCoder(p *prog.Program, tr *tracer) (*encoding.Coder, error) {
	var plan *encoding.Plan
	var coder *encoding.Coder
	var err error
	tr.timed("encoding.plan", 0, func() {
		if plan, err = encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets()); err == nil {
			coder, err = encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("coder: %w", err)
	}
	return coder, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// overheadPct is how much slower traced ran than untraced, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
