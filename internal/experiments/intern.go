package experiments

import (
	"fmt"
	"sync"

	"heaptherapy/internal/callgraph"
	"heaptherapy/internal/ccprof"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// This file is the experiment harness's interning layer. Programs,
// call graphs, plans, coders, and compiled bytecode are all immutable
// once constructed, so experiments share one instance per logical
// identity instead of rebuilding them for every measured run: a
// benchmark sweep that used to plan, number, and compile the same
// (program, scheme, encoder) triple eight times now does it once.
// Sharing cannot perturb measurements — execution over these
// artifacts is deterministic on the virtual-cycle axis, which
// TestExperimentsEngineIndependent locks in even across engines.

type progFlavor uint8

const (
	flavorSpec progFlavor = iota
	flavorLiveHeap
)

type progKey struct {
	name   string
	scale  uint64
	flavor progFlavor
}

type planKey struct {
	g      *callgraph.Graph
	scheme encoding.Scheme
}

type coderKey struct {
	g      *callgraph.Graph
	scheme encoding.Scheme
	kind   encoding.EncoderKind
}

type preparedKey struct {
	p      *prog.Program
	coder  *encoding.Coder
	engine prog.Engine
}

type graphEntry struct {
	g       *callgraph.Graph
	targets []callgraph.NodeID
}

// intern holds the process-wide caches. Only benchmark-derived
// artifacts are interned (they are few and reused heavily); ad-hoc
// programs built by other callers keep the uncached paths so the
// caches cannot grow without bound.
var intern = struct {
	mu       sync.Mutex
	planner  *encoding.Planner
	programs map[progKey]*prog.Program
	progSet  map[*prog.Program]bool
	graphs   map[string]graphEntry
	plans    map[planKey]*encoding.Plan
	coders   map[coderKey]*encoding.Coder
	prepared map[preparedKey]*prog.Prepared
}{
	planner:  encoding.NewPlanner(),
	programs: make(map[progKey]*prog.Program),
	progSet:  make(map[*prog.Program]bool),
	graphs:   make(map[string]graphEntry),
	plans:    make(map[planKey]*encoding.Plan),
	coders:   make(map[coderKey]*encoding.Coder),
	prepared: make(map[preparedKey]*prog.Prepared),
}

// internedProgram returns the shared program for (benchmark, scale,
// flavor), generating it on first use.
func internedProgram(b *workload.Benchmark, cfg Config, flavor progFlavor) (*prog.Program, error) {
	key := progKey{name: b.Name, scale: cfg.Scale, flavor: flavor}
	intern.mu.Lock()
	defer intern.mu.Unlock()
	if p, ok := intern.programs[key]; ok {
		return p, nil
	}
	var (
		p   *prog.Program
		err error
	)
	if flavor == flavorLiveHeap {
		p, err = b.LiveHeapProgram(cfg.programConfig())
	} else {
		p, _, err = b.Program(cfg.programConfig())
	}
	if err != nil {
		return nil, err
	}
	intern.programs[key] = p
	intern.progSet[p] = true
	return p, nil
}

// internedGraph returns the shared synthetic call graph for a
// benchmark (the static-analysis experiments plan over it directly).
func internedGraph(b *workload.Benchmark) (*callgraph.Graph, []callgraph.NodeID, error) {
	intern.mu.Lock()
	defer intern.mu.Unlock()
	if e, ok := intern.graphs[b.Name]; ok {
		return e.g, e.targets, nil
	}
	g, targets, err := b.Graph()
	if err != nil {
		return nil, nil, err
	}
	intern.graphs[b.Name] = graphEntry{g: g, targets: targets}
	return g, targets, nil
}

// internedPlan returns the shared plan for (graph, scheme). targets
// must be the graph's canonical target set (the one its owner —
// program or benchmark — reports); the cache key omits it because a
// graph has exactly one.
func internedPlan(g *callgraph.Graph, targets []callgraph.NodeID, scheme encoding.Scheme) (*encoding.Plan, error) {
	intern.mu.Lock()
	defer intern.mu.Unlock()
	return internedPlanLocked(g, targets, scheme)
}

func internedPlanLocked(g *callgraph.Graph, targets []callgraph.NodeID, scheme encoding.Scheme) (*encoding.Plan, error) {
	key := planKey{g: g, scheme: scheme}
	if pl, ok := intern.plans[key]; ok {
		return pl, nil
	}
	pl, err := intern.planner.Plan(scheme, g, targets)
	if err != nil {
		return nil, err
	}
	intern.plans[key] = pl
	return pl, nil
}

// internedCoder returns the shared coder for (graph, scheme, encoder),
// planning and numbering on first use.
func internedCoder(g *callgraph.Graph, targets []callgraph.NodeID, scheme encoding.Scheme, kind encoding.EncoderKind) (*encoding.Coder, error) {
	intern.mu.Lock()
	defer intern.mu.Unlock()
	key := coderKey{g: g, scheme: scheme, kind: kind}
	if c, ok := intern.coders[key]; ok {
		return c, nil
	}
	pl, err := internedPlanLocked(g, targets, scheme)
	if err != nil {
		return nil, err
	}
	c, err := encoding.NewCoder(kind, g, pl)
	if err != nil {
		return nil, err
	}
	intern.coders[key] = c
	return c, nil
}

// internedPrepared returns p prepared for coder and ec's engine, cached when the program is itself interned;
// ad-hoc programs prepare fresh so the cache holds only the benchmark
// set.
func internedPrepared(p *prog.Program, coder *encoding.Coder, ec prog.Config) (*prog.Prepared, error) {
	key := preparedKey{p: p, coder: coder, engine: ec.Engine}
	intern.mu.Lock()
	cached := intern.progSet[p]
	if cached {
		if pp, ok := intern.prepared[key]; ok {
			intern.mu.Unlock()
			return pp, nil
		}
	}
	intern.mu.Unlock()
	pp, err := prog.Prepare(p, prog.Config{Coder: coder, Engine: ec.Engine})
	if err != nil {
		return nil, err
	}
	if cached {
		intern.mu.Lock()
		intern.prepared[key] = pp
		intern.mu.Unlock()
	}
	return pp, nil
}

// execFor builds an executor like prog.NewExec but through the
// prepared-program cache, so repeated runs of the same (program,
// coder) pair compile once.
func execFor(ec prog.Config, p *prog.Program, coder *encoding.Coder, backend prog.HeapBackend) (prog.Exec, error) {
	pp, err := internedPrepared(p, coder, ec)
	if err != nil {
		return nil, err
	}
	return pp.NewExec(backend)
}

// workbench recycles the mutable execution substrate — address
// spaces, backends, and per-coder executors — across the measured
// runs of one benchmark. The Reset contracts (mem.Space, the native
// and defense backends) guarantee a recycled substrate behaves
// bit-identically to a fresh one, so only construction cost is
// eliminated, never measurement.
type workbench struct {
	ec prog.Config // engine
	p  *prog.Program

	space  *mem.Space
	native *prog.NativeBackend
	execs  map[*encoding.Coder]prog.Exec

	dspace *mem.Space
}

func newWorkbench(ec prog.Config, p *prog.Program) *workbench {
	return &workbench{ec: ec, p: p, execs: make(map[*encoding.Coder]prog.Exec)}
}

// nativeBackend returns the recycled native backend, reset and ready
// for one execution.
func (w *workbench) nativeBackend() (*prog.NativeBackend, error) {
	if w.native == nil {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			return nil, fmt.Errorf("experiments: creating space: %w", err)
		}
		nb, err := prog.NewNativeBackend(space)
		if err != nil {
			return nil, err
		}
		w.space, w.native = space, nb
		return nb, nil
	}
	w.space.Reset()
	if err := w.native.Reset(); err != nil {
		return nil, err
	}
	return w.native, nil
}

// runNative executes the program natively (instrumented when coder is
// non-nil), reusing the space, backend, and the per-coder executor.
func (w *workbench) runNative(coder *encoding.Coder) (*measured, error) {
	nb, err := w.nativeBackend()
	if err != nil {
		return nil, err
	}
	it, ok := w.execs[coder]
	if !ok {
		it, err = execFor(w.ec, w.p, coder, nb)
		if err != nil {
			return nil, err
		}
		w.execs[coder] = it
	}
	res, err := it.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: running %s: %w", w.p.Name, err)
	}
	if res.Crashed() {
		return nil, fmt.Errorf("experiments: %s crashed: %v", w.p.Name, res.Fault)
	}
	return &measured{res: res, heap: nb.Heap()}, nil
}

// runDefended executes the program over a defense backend built on the
// recycled defense space. The backend itself is rebuilt per run — its
// configuration (mode, patch set) varies — but spaces and bytecode are
// shared.
func (w *workbench) runDefended(coder *encoding.Coder, mode defense.Mode, patches *patch.Set) (*measured, error) {
	if w.dspace == nil {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			return nil, fmt.Errorf("experiments: creating space: %w", err)
		}
		w.dspace = space
	} else {
		w.dspace.Reset()
	}
	db, err := defense.NewBackend(w.dspace, defense.Config{Mode: mode, Patches: patches})
	if err != nil {
		return nil, err
	}
	it, err := execFor(w.ec, w.p, coder, db)
	if err != nil {
		return nil, err
	}
	res, err := it.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: running %s: %w", w.p.Name, err)
	}
	if res.Crashed() {
		return nil, fmt.Errorf("experiments: %s crashed: %v", w.p.Name, res.Fault)
	}
	return &measured{res: res, heap: db.Defender().Heap(), stats: db.Defender().Stats()}, nil
}

// profile runs one CCID-profiling execution over the recycled native
// substrate and returns the ranked allocation contexts.
func (w *workbench) profile(coder *encoding.Coder) ([]ccprof.Sample, error) {
	nb, err := w.nativeBackend()
	if err != nil {
		return nil, err
	}
	return profileCCIDs(w.ec, w.p, coder, nb)
}
