package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"heaptherapy/internal/ccprof"
	"heaptherapy/internal/core"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// specPrograms are the allocation-heavy SPEC stand-ins of the spec
// workload: the four whose runs finish in tens of milliseconds.
var specPrograms = []string{"400.perlbench", "403.gcc", "471.omnetpp", "483.xalancbmk"}

// specProg is one program of a spec or alloc-churn run: the instrumented
// system, the seed-chosen patches, and the native reference run.
type specProg struct {
	name    string
	sys     *core.System
	patches *patch.Set
	native  *prog.Result
	// defended is the warm-up's untraced defended run, the reference
	// for the traced replays.
	defended *core.DefendedRun
}

// buildSpecProg links the program, instruments it with the default
// options, profiles its allocation contexts natively, plants one patch
// per entry of types on seed-chosen contexts, runs it natively for the
// reference, and warms it up with one defended run.
func buildSpecProg(b *workload.Benchmark, scale, seed uint64, types []patch.TypeMask, tr *tracer, t *tally) (*specProg, error) {
	p, _, err := b.Program(workload.ProgramConfig{Scale: scale})
	if err != nil {
		return nil, err
	}
	var sys *core.System
	tr.timed("encoding.plan", 0, func() { sys, err = core.NewSystem(p, core.Options{}) })
	if err != nil {
		return nil, err
	}
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, err
	}
	nb, err := prog.NewNativeBackend(space)
	if err != nil {
		return nil, err
	}
	profile, err := ccprof.Profile(p, nb, sys.Coder(), nil, core.Options{}.Engine)
	if err != nil {
		return nil, err
	}
	sp := &specProg{name: b.Name, sys: sys, patches: choosePatches(profile, seed, b.Name, types)}
	if sp.native, err = sys.RunNative(nil); err != nil {
		return nil, err
	}
	if sp.native.Crashed() {
		return nil, fmt.Errorf("%s: native run crashed: %v", b.Name, sp.native.Fault)
	}
	if sp.defended, err = sys.RunDefended(nil, sp.patches); err != nil {
		return nil, err
	}
	t.note(checkDefended(sp.native, sp.defended))
	return sp, nil
}

// choosePatches plants one patch per entry of types on distinct
// allocation contexts drawn by the seed from the profile's middle band
// of allocation frequency (ranks 25%..75%), following the paper's
// median-frequency protocol while letting the seed vary the contexts.
func choosePatches(profile []ccprof.Sample, seed uint64, name string, types []patch.TypeMask) *patch.Set {
	ranked := append([]ccprof.Sample(nil), profile...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Count != ranked[j].Count {
			return ranked[i].Count < ranked[j].Count
		}
		return ranked[i].Key.CCID < ranked[j].Key.CCID
	})
	band := ranked[len(ranked)/4 : len(ranked)*3/4]
	if len(band) < len(types) {
		band = ranked
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(seed ^ h.Sum64())))
	set := patch.NewSet()
	for i, j := range rng.Perm(len(band)) {
		if i == len(types) {
			break
		}
		set.Add(patch.Patch{Fn: band[j].Key.Fn, CCID: band[j].Key.CCID, Types: types[i]})
	}
	return set
}

func repeatTypes(n int, types ...patch.TypeMask) []patch.TypeMask {
	var out []patch.TypeMask
	for _, t := range types {
		for i := 0; i < n; i++ {
			out = append(out, t)
		}
	}
	return out
}

func runSpec(cfg *config, tr *tracer) (*outcome, error) {
	var benches []*workload.Benchmark
	for _, name := range specPrograms {
		b, err := workload.BenchmarkByName(name)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	// Figure 8's "patch5" level: five overflow patches per program.
	return runPrograms(cfg, tr, benches, repeatTypes(5, patch.TypeOverflow))
}

// churnBenchmark is perlbench's call-graph shape with one statement of
// modeled compute per allocation and a malloc/calloc/realloc mix of
// about allocs allocations per run. The seed is in the name, which
// seeds the graph and the allocation sizes.
func churnBenchmark(seed, allocs uint64) (*workload.Benchmark, error) {
	perl, err := workload.BenchmarkByName("400.perlbench")
	if err != nil {
		return nil, err
	}
	b := *perl
	b.Name = fmt.Sprintf("alloc-churn-%d", seed)
	b.ComputePerAlloc = 1
	// Program divides these Table IV-style counts by its default scale
	// of 10,000: 77% malloc, 15% calloc, 8% realloc.
	const scale = 10_000
	b.Mallocs = allocs * 77 / 100 * scale
	b.Callocs = allocs * 15 / 100 * scale
	b.Reallocs = allocs * 8 / 100 * scale
	return &b, nil
}

func runAllocChurn(cfg *config, tr *tracer) (*outcome, error) {
	b, err := churnBenchmark(cfg.seed, cfg.size.churnAllocs)
	if err != nil {
		return nil, err
	}
	types := repeatTypes(5, patch.TypeOverflow, patch.TypeUseAfterFree, patch.TypeUninitRead)
	cfg2 := *cfg
	cfg2.size.specScale = 0 // the allocation count is already sized
	return runPrograms(&cfg2, tr, []*workload.Benchmark{b}, types)
}

// runPrograms is the spec and alloc-churn workload: rounds of one
// RunDefended call per program for the measured window, each checked
// against the native run. A round is the unit of work its latency
// metrics time.
func runPrograms(cfg *config, tr *tracer, benches []*workload.Benchmark, types []patch.TypeMask) (*outcome, error) {
	o := newOutcome(core.Options{}.Engine.String())
	progs, setup, err := repeatSetup(cfg.size.setups, func() ([]*specProg, error) {
		var out []*specProg
		for _, b := range benches {
			sp, err := buildSpecProg(b, cfg.size.specScale, cfg.seed, types, tr, &o.checks)
			if err != nil {
				return nil, err
			}
			out = append(out, sp)
		}
		return out, nil
	}, func([]*specProg) {})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	runtime.GC()

	window := cfg.measure
	if cfg.trace {
		window /= 2
	}
	untraced, m := measurePrograms(progs, window, &o.checks)
	o.record(untraced, m)
	for _, sp := range progs {
		mb, err := defendedHeapMB(sp, &o.checks)
		if err != nil {
			return nil, err
		}
		o.metrics["mem_heap_mb"] = max(o.metrics["mem_heap_mb"], mb)
	}
	if !cfg.trace {
		return o, nil
	}

	traced, err := replayPrograms(progs, window, tr, &o.checks, o)
	if err != nil {
		return nil, err
	}
	o.metrics["trace.overhead_pct"] = overheadPct(untraced.quantile(0.5), median(traced))
	var over []float64
	for _, sp := range progs {
		over = append(over, 100*(float64(sp.defended.Result.Cycles)-float64(sp.native.Cycles))/float64(sp.native.Cycles))
		o.metrics["encoding.instrumented_sites"] += float64(sp.sys.Coder().Plan().NumSites())
	}
	o.metrics["defense.cycle_overhead_pct"] = mean(over)
	return o, nil
}

// measurePrograms runs rounds — one RunDefended of each program in turn,
// each checked against its native run — until d has passed (at least
// one round), and returns each round's wall time in ms and the runs'
// meter.
func measurePrograms(progs []*specProg, d time.Duration, t *tally) (*hist, *meter) {
	rounds := newHist()
	m := newMeter(d)
	for m.running() {
		began := time.Now()
		for _, sp := range progs {
			run, err := sp.sys.RunDefended(nil, sp.patches)
			if err == nil {
				err = checkDefended(sp.native, run)
			}
			t.note(err)
		}
		rounds.add(ms(time.Since(began)))
		m.tick(len(progs))
	}
	return rounds, m
}

// defendedHeapMB runs the program once through RunDefended's sequence
// (mem.NewSpace, defense.NewBackend, prog.NewExec, Run), checks the run
// against the native one, and takes the live heap while the finished
// run's address space and defense are still held: the systems plus one
// defended run at its largest, since a space never shrinks.
func defendedHeapMB(sp *specProg, t *tally) (float64, error) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return 0, err
	}
	b, err := defense.NewBackend(space, defense.Config{Mode: defense.ModeFull, Patches: sp.patches})
	if err != nil {
		return 0, err
	}
	ex, err := prog.NewExec(sp.sys.Program(), prog.Config{Backend: b, Coder: sp.sys.Coder()})
	if err != nil {
		return 0, err
	}
	res, err := ex.Run(nil)
	if err != nil {
		return 0, err
	}
	run := &core.DefendedRun{Result: res}
	if h := b.Defender().Heap(); h != nil {
		run.HeapErr = h.CheckIntegrity()
	}
	t.note(checkDefended(sp.native, run))
	mb := liveHeapMB()
	runtime.KeepAlive(ex)
	return mb, nil
}

// replayPrograms runs rounds of RunDefended's sequence with every seam
// wrapped — mem.NewSpace, defense.NewBackendWithAllocator over a traced
// heapsim allocator, prog.NewExec over a traced backend, Run — for d,
// checks each run bit-identical to the untraced defended run, and
// returns each round's wall time in ms. Counts come from the first
// round.
func replayPrograms(progs []*specProg, d time.Duration, tr *tracer, t *tally, o *outcome) ([]float64, error) {
	var rounds []float64
	for start := time.Now(); len(rounds) == 0 || time.Since(start) < d; {
		began := time.Now()
		for _, sp := range progs {
			res, b, heap, err := replayDefended(sp, tr)
			if err != nil {
				return nil, err
			}
			t.note(firstErr(checkReplay(sp.name, sp.defended.Result, res), heap.CheckIntegrity()))
			if len(rounds) == 0 {
				addDefenseStats(o, b.Defender().Stats())
				o.metrics["defense.cycles"] += float64(b.Defender().Cycles())
				o.metrics["mem.memop_cycles"] += float64(b.Cycles() - b.Defender().Cycles())
				o.metrics["prog.steps"] += float64(res.Steps)
				o.metrics["prog.interp_cycles"] += float64(res.InterpCycles)
				o.metrics["heapsim.calls"] += float64(heap.calls)
			}
		}
		rounds = append(rounds, ms(time.Since(began)))
	}
	return rounds, nil
}

// replayDefended is one traced RunDefended.
func replayDefended(sp *specProg, tr *tracer) (*prog.Result, *defense.Backend, *tracedHeap, error) {
	req := tr.newID()
	start := tr.now()
	var space *mem.Space
	var err error
	tr.timed("mem.space_new", req, func() { space, err = mem.NewSpace(mem.Config{}) })
	if err != nil {
		return nil, nil, nil, err
	}
	ops := &opSet{tr: tr}
	heap := &tracedHeap{space: space, ops: ops}
	b, err := defense.NewBackendWithAllocator(space, heap, defense.Config{Mode: defense.ModeFull, Patches: sp.patches})
	if err != nil {
		return nil, nil, nil, err
	}
	tb, err := newTracedBackend(b, ops)
	if err != nil {
		return nil, nil, nil, err
	}
	ex, err := timedExec(sp.sys.Program(), prog.Config{Backend: tb, Coder: sp.sys.Coder()}, tr, req)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := runSpan(ex, nil, tr, ops, req)
	tr.add(span{ID: req, Req: req, Name: "replay.run", Start: start, End: tr.now()})
	return res, b, heap, err
}

// addDefenseStats adds a defense layer's counters to the outcome.
func addDefenseStats(o *outcome, st defense.Stats) {
	o.metrics["defense.lookups"] += float64(st.Lookups)
	o.metrics["defense.patched_allocs"] += float64(st.PatchedAllocs)
	o.metrics["defense.guard_pages"] += float64(st.GuardPages)
	o.metrics["defense.deferred_frees"] += float64(st.DeferredFrees)
	o.metrics["defense.zero_fills"] += float64(st.ZeroFills)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
