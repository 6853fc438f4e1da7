package campaign

import (
	"reflect"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
)

// normalize strips the timing fields the determinism contract excludes
// (RunReport documents that only these may vary across worker counts
// and scheduling modes).
func normalize(r *RunReport) *RunReport {
	c := *r
	c.Workers = 0
	c.ShardSize = 0
	c.Guided = false
	c.WorkerStats = nil
	c.Elapsed = 0
	c.ElapsedMs = 0
	c.SeedsPerSec = 0
	return &c
}

// TestParallelMatchesSequential pins the merge contract: a run to
// completion produces the identical report at any worker count —
// per-shard accumulators concatenated in shard order reconstruct
// exactly the sequential seed order. Under the race detector this
// doubles as the concurrency test, with more workers than GOMAXPROCS
// (CI runners here have GOMAXPROCS=1) hammering the scheduler, the
// stop flag, and the per-worker workbenches.
func TestParallelMatchesSequential(t *testing.T) {
	seeds := uint64(16)
	if raceEnabled {
		seeds = 6
	}
	base := RunConfig{Seeds: seeds, ShardSize: 3}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 4

	sr, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Workers != 1 || pr.Workers != 4 {
		t.Fatalf("worker counts: sequential=%d parallel=%d", sr.Workers, pr.Workers)
	}
	if !reflect.DeepEqual(normalize(sr), normalize(pr)) {
		t.Errorf("parallel report diverges from sequential:\n seq: %+v\n par: %+v", normalize(sr), normalize(pr))
	}
	if sr.Cases != int(seeds) || sr.FailingSeeds != 0 {
		t.Errorf("clean corpus: cases=%d failing=%d", sr.Cases, sr.FailingSeeds)
	}
	var statSeeds uint64
	for _, st := range pr.WorkerStats {
		statSeeds += st.Seeds
	}
	if statSeeds != uint64(pr.Cases) {
		t.Errorf("worker stats cover %d seeds, report has %d cases", statSeeds, pr.Cases)
	}
}

// brokenOracle returns an oracle whose boundary-tag heap silently
// under-allocates (the mutation rig's shortHeap), so most seeds fail
// the matrix — the harness for early-stop and guidance tests.
func brokenOracle() Oracle {
	return Oracle{
		AllocatorFor: func(kind AllocKind, space *mem.Space) (heapsim.Allocator, error) {
			if kind == AllocHeap {
				return &shortHeap{space: space}, nil
			}
			return heapsim.NewPool(space)
		},
	}
}

// TestGuidedMatchesUnguided pins that divergence guidance reorders
// execution only: the merged run-to-completion report is identical
// with and without it, including over a corpus that actually fails
// (so the kind-score path really engages).
func TestGuidedMatchesUnguided(t *testing.T) {
	if testing.Short() {
		t.Skip("broken-allocator corpus in -short")
	}
	seeds := uint64(8)
	if raceEnabled {
		seeds = 4
	}
	base := RunConfig{
		Seeds:     seeds,
		ShardSize: 2,
		Workers:   2,
		Oracle:    brokenOracle(),
		Gen:       GenConfig{Kinds: []VulnKind{OverflowWrite, UAFWrite}},
	}
	guided := base
	guided.Guided = true

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Run(guided)
	if err != nil {
		t.Fatal(err)
	}
	if plain.FailingSeeds == 0 {
		t.Fatal("broken allocator produced no failing seeds; guidance untested")
	}
	if !reflect.DeepEqual(normalize(plain), normalize(g)) {
		t.Errorf("guided report diverges from unguided:\n plain:  %+v\n guided: %+v", normalize(plain), normalize(g))
	}
}

// TestMaxFailingSeedsStopsPromptly pins both halves of the stop
// contract: a seed with several assertion failures counts as ONE
// failing seed, and once the threshold is reached in-flight workers
// cancel at seed granularity instead of draining their shards.
func TestMaxFailingSeedsStopsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("broken-allocator corpus in -short")
	}
	seeds := uint64(400)
	rep, err := Run(RunConfig{
		Seeds:           seeds,
		ShardSize:       8,
		Workers:         4,
		MaxFailingSeeds: 3,
		Oracle:          brokenOracle(),
		Gen:             GenConfig{Kinds: []VulnKind{OverflowWrite}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stopped {
		t.Fatalf("run was not stopped (failing=%d cases=%d)", rep.FailingSeeds, rep.Cases)
	}
	if rep.FailingSeeds < 3 {
		t.Errorf("stopped with only %d failing seeds (threshold 3)", rep.FailingSeeds)
	}
	if rep.Cases >= int(seeds) {
		t.Errorf("stop was not prompt: all %d seeds were checked", rep.Cases)
	}
	distinct := map[uint64]bool{}
	for _, f := range rep.Failures {
		distinct[f.Seed] = true
	}
	if len(distinct) != rep.FailingSeeds {
		t.Errorf("FailingSeeds=%d but failures name %d distinct seeds", rep.FailingSeeds, len(distinct))
	}
	if len(rep.Failures) <= rep.FailingSeeds {
		t.Logf("note: every failing seed produced a single assertion failure (count-once path still covered)")
	}
	if len(rep.Bundles) != rep.FailingSeeds {
		t.Errorf("%d bundles for %d failing seeds", len(rep.Bundles), rep.FailingSeeds)
	}
}

// TestRunBundles pins the forensic record: each failing seed yields a
// replayable bundle carrying the source, hex inputs, the failure list,
// the minimized witness when reduction is on, and event-ring traces
// from the defended cells.
func TestRunBundles(t *testing.T) {
	if testing.Short() {
		t.Skip("broken-allocator corpus in -short")
	}
	oracle := brokenOracle()
	// Trim the matrix to keep the reduction loop (which replays every
	// delta-debugging candidate through the oracle) cheap.
	oracle.Engines = []prog.Engine{prog.EngineTree}
	oracle.Allocators = []AllocKind{AllocHeap}
	gen := GenConfig{Kinds: []VulnKind{OverflowWrite}}
	// Reduction replays hundreds of delta-debugging candidates, each a
	// fresh-substrate oracle pass (AllocatorFor forces delegation);
	// under the race detector's ~20x slowdown that alone blows the CI
	// budget. Skip it there: MinimizeFailure runs entirely inside one
	// worker's goroutine on worker-local state, so the concurrent
	// surface it touches is exactly what the other multi-worker tests
	// already race.
	reduce := !raceEnabled
	rep, err := Run(RunConfig{
		Seeds:           40,
		Workers:         2,
		MaxFailingSeeds: 1,
		Reduce:          reduce,
		Oracle:          oracle,
		Gen:             gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bundles) == 0 {
		t.Fatal("no bundles for a failing run")
	}
	b := rep.Bundles[0]
	if b.Source == "" || b.Benign == "" || b.Attack == "" {
		t.Errorf("bundle incomplete: source=%d bytes benign=%q attack=%q", len(b.Source), b.Benign, b.Attack)
	}
	if len(b.Failures) == 0 {
		t.Error("bundle carries no failures")
	}
	if reduce {
		if b.Reduced == nil {
			t.Error("Reduce was on but bundle has no reduced witness")
		} else if b.Reduced.Statements <= 0 || b.Reduced.Source == "" {
			t.Errorf("reduced witness incomplete: %+v", b.Reduced)
		}
		if len(rep.Reduced) != len(rep.Bundles) {
			t.Errorf("%d reduced witnesses for %d bundles", len(rep.Reduced), len(rep.Bundles))
		}
	}
	if len(b.Traces) == 0 {
		t.Error("bundle carries no defended-cell traces")
	}
}

// TestRunMatrixSelection pins that the sharded runtime honors the
// oracle's engine/allocator trims and the generator's kind trim, the
// same knobs the CLI exposes.
func TestRunMatrixSelection(t *testing.T) {
	rep, err := Run(RunConfig{
		Seeds:   3,
		Workers: 2,
		Gen:     GenConfig{Kinds: []VulnKind{DoubleFree}},
		Oracle: Oracle{
			Engines:    []prog.Engine{prog.EngineCompiled},
			Allocators: []AllocKind{AllocPool},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FailingSeeds != 0 {
		t.Fatalf("trimmed matrix failed: %+v", rep.Failures)
	}
	if rep.Cases != 3 || rep.ByKind["double-free"] != 3 {
		t.Errorf("cases=%d by_kind=%v", rep.Cases, rep.ByKind)
	}
	if rep.SeedsPerSec <= 0 {
		t.Errorf("seeds_per_sec not computed: %v", rep.SeedsPerSec)
	}
}

// TestPlannedKind pins the guided scheduler's profiling primitive:
// PlannedKind must agree with Generate for every seed and config trim.
func TestPlannedKind(t *testing.T) {
	cfgs := []GenConfig{
		{},
		{Kinds: []VulnKind{UAFRead, DoubleFree, UninitRead}},
	}
	for _, cfg := range cfgs {
		for seed := uint64(0); seed < 50; seed++ {
			want := PlannedKind(seed, cfg)
			g, err := Generate(seed, cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if g.Kind != want {
				t.Fatalf("seed %d: PlannedKind=%v but Generate injected %v", seed, want, g.Kind)
			}
		}
	}
}
