// Package workload generates the evaluation workloads: SPEC CPU2006
// stand-ins parameterized from the paper's own measurements, and
// Nginx/MySQL-like service loads.
//
// SPEC binaries cannot run on the simulated heap, so each benchmark is
// modeled by two paper-sourced parameter sets:
//
//   - Table IV gives each benchmark's real malloc/calloc/realloc call
//     counts; the generated program reproduces those proportions
//     (scaled down by a configurable factor) along with a per-benchmark
//     compute intensity, since interposition overhead is a function of
//     allocation frequency relative to other work.
//
//   - Table III's per-benchmark size-increase ratios reflect call-graph
//     shape: how much of the program reaches an allocator (TCS), and
//     how much of that branches (Slim/Incremental). Each benchmark gets
//     a synthetic call graph whose shape knobs are set to approximate
//     its row.
//
// The same graphs and programs drive the encoding-overhead comparison
// (Section VIII-B1) and the Figure 8/9 runtime and memory overheads.
package workload

import (
	"fmt"
	"math/rand"

	"heaptherapy/internal/callgraph"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/prog"
)

// Benchmark describes one SPEC CPU2006 stand-in.
type Benchmark struct {
	// Name is the SPEC benchmark name.
	Name string
	// Mallocs, Callocs, Reallocs are the paper's Table IV counts.
	Mallocs, Callocs, Reallocs uint64
	// ComputePerAlloc is the modeled non-allocating work (interpreter
	// statements) per allocation, controlling allocation intensity:
	// allocation-heavy benchmarks (perlbench) have low values, compute
	// benchmarks (bzip2, sjeng) very high ones.
	ComputePerAlloc uint64
	// Graph shape parameters approximating the Table III row.
	Funcs           int
	Layers          int
	FanOut          float64
	AllocCallerFrac float64
	DupSiteFrac     float64
	FuncBytes       uint64 // average function size for the size model
	// AvgAllocSize is the typical object size for this benchmark.
	AvgAllocSize uint64
	// LiveBuffers approximates the benchmark's steady-state live heap
	// object count (scaled), driving the Figure 9 memory overheads.
	LiveBuffers int
}

// SpecBenchmarks returns the twelve SPEC CPU2006 integer benchmarks
// with Table IV's allocation counts and shape parameters chosen to
// approximate Table III. Sparse allocators (bzip2, mcf, sjeng,
// libquantum) get near-zero AllocCallerFrac — their TCS sets collapse,
// exactly as the paper's rows do — while perlbench/gcc/xalancbmk stay
// allocation-saturated.
func SpecBenchmarks() []*Benchmark {
	return []*Benchmark{
		{
			Name: "400.perlbench", Mallocs: 346_405_116, Callocs: 0, Reallocs: 11_736_402,
			ComputePerAlloc: 60,
			Funcs:           220, Layers: 8, FanOut: 3.0, AllocCallerFrac: 0.55, DupSiteFrac: 0.30,
			FuncBytes: 640, AvgAllocSize: 64, LiveBuffers: 700,
		},
		{
			Name: "401.bzip2", Mallocs: 174, Callocs: 0, Reallocs: 0,
			ComputePerAlloc: 200_000,
			Funcs:           90, Layers: 5, FanOut: 2.4, AllocCallerFrac: 0.012, DupSiteFrac: 0.05,
			FuncBytes: 900, AvgAllocSize: 256 * 1024, LiveBuffers: 12,
		},
		{
			Name: "403.gcc", Mallocs: 23_690_559, Callocs: 4_723_237, Reallocs: 44_688,
			ComputePerAlloc: 180,
			Funcs:           260, Layers: 8, FanOut: 2.8, AllocCallerFrac: 0.50, DupSiteFrac: 0.25,
			FuncBytes: 700, AvgAllocSize: 96, LiveBuffers: 900,
		},
		{
			Name: "429.mcf", Mallocs: 5, Callocs: 3, Reallocs: 0,
			ComputePerAlloc: 400_000,
			Funcs:           40, Layers: 4, FanOut: 2.0, AllocCallerFrac: 0.03, DupSiteFrac: 0.02,
			FuncBytes: 1400, AvgAllocSize: 1 << 20, LiveBuffers: 6,
		},
		{
			Name: "445.gobmk", Mallocs: 606_463, Callocs: 0, Reallocs: 52_115,
			ComputePerAlloc: 2500,
			Funcs:           180, Layers: 7, FanOut: 2.6, AllocCallerFrac: 0.12, DupSiteFrac: 0.18,
			FuncBytes: 800, AvgAllocSize: 128, LiveBuffers: 120,
		},
		{
			Name: "456.hmmer", Mallocs: 1_983_014, Callocs: 122_564, Reallocs: 368_696,
			ComputePerAlloc: 900,
			Funcs:           130, Layers: 6, FanOut: 2.5, AllocCallerFrac: 0.30, DupSiteFrac: 0.04,
			FuncBytes: 620, AvgAllocSize: 192, LiveBuffers: 260,
		},
		{
			Name: "458.sjeng", Mallocs: 5, Callocs: 0, Reallocs: 0,
			ComputePerAlloc: 400_000,
			Funcs:           70, Layers: 5, FanOut: 2.3, AllocCallerFrac: 0.015, DupSiteFrac: 0.05,
			FuncBytes: 1000, AvgAllocSize: 2 << 20, LiveBuffers: 4,
		},
		{
			Name: "462.libquantum", Mallocs: 1, Callocs: 121, Reallocs: 58,
			ComputePerAlloc: 300_000,
			Funcs:           50, Layers: 4, FanOut: 2.2, AllocCallerFrac: 0.10, DupSiteFrac: 0.06,
			FuncBytes: 520, AvgAllocSize: 512 * 1024, LiveBuffers: 8,
		},
		{
			Name: "464.h264ref", Mallocs: 7_270, Callocs: 170_518, Reallocs: 0,
			ComputePerAlloc: 8000,
			Funcs:           150, Layers: 6, FanOut: 2.5, AllocCallerFrac: 0.12, DupSiteFrac: 0.10,
			FuncBytes: 850, AvgAllocSize: 2048, LiveBuffers: 300,
		},
		{
			Name: "471.omnetpp", Mallocs: 267_064_936, Callocs: 0, Reallocs: 0,
			ComputePerAlloc: 80,
			Funcs:           200, Layers: 7, FanOut: 2.7, AllocCallerFrac: 0.30, DupSiteFrac: 0.22,
			FuncBytes: 720, AvgAllocSize: 80, LiveBuffers: 800,
		},
		{
			Name: "473.astar", Mallocs: 4_799_959, Callocs: 0, Reallocs: 0,
			ComputePerAlloc: 700,
			// astar: almost everything reaches malloc (TCS ~= FCS in
			// Table III) but through straight-line call chains, so Slim
			// collapses the set (7.0% -> 0.2%): Layers close to Funcs
			// makes the graph a bundle of chains with few branches.
			Funcs: 60, Layers: 55, FanOut: 1.0, AllocCallerFrac: 0.10, DupSiteFrac: 0,
			FuncBytes: 760, AvgAllocSize: 64, LiveBuffers: 350,
		},
		{
			Name: "483.xalancbmk", Mallocs: 135_155_553, Callocs: 0, Reallocs: 0,
			ComputePerAlloc: 110,
			Funcs:           280, Layers: 8, FanOut: 2.8, AllocCallerFrac: 0.25, DupSiteFrac: 0.20,
			FuncBytes: 680, AvgAllocSize: 72, LiveBuffers: 1000,
		},
	}
}

// BenchmarkByName finds a benchmark by SPEC name.
func BenchmarkByName(name string) (*Benchmark, error) {
	for _, b := range SpecBenchmarks() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Targets returns the allocation APIs this benchmark uses, matching
// Table IV's nonzero columns (realloc is always reachable through the
// drivers when used).
func (b *Benchmark) Targets() []string {
	var t []string
	if b.Mallocs > 0 {
		t = append(t, "malloc")
	}
	if b.Callocs > 0 {
		t = append(t, "calloc")
	}
	if b.Reallocs > 0 {
		t = append(t, "realloc")
	}
	if len(t) == 0 {
		t = []string{"malloc"}
	}
	return t
}

// Graph generates the benchmark's synthetic call graph and target set.
func (b *Benchmark) Graph() (*callgraph.Graph, []callgraph.NodeID, error) {
	return callgraph.Generate(callgraph.GenConfig{
		Funcs:           b.Funcs,
		Layers:          b.Layers,
		FanOut:          b.FanOut,
		Targets:         b.Targets(),
		AllocCallerFrac: b.AllocCallerFrac,
		DupSiteFrac:     b.DupSiteFrac,
		Seed:            seedFor(b.Name),
	})
}

// FuncSize returns the size-model callback for Table III's size
// percentages.
func (b *Benchmark) FuncSize() func(callgraph.NodeID) uint64 {
	return func(callgraph.NodeID) uint64 { return b.FuncBytes }
}

// seedFor derives a stable per-benchmark seed.
func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// ProgramConfig controls workload program generation.
type ProgramConfig struct {
	// Scale divides Table IV's allocation counts (default 10000).
	// Counts below 1000 are kept as-is: tiny allocators like bzip2
	// really do allocate a handful of buffers.
	Scale uint64
}

// maxAllocSize caps object sizes so scaled runs stay in the arena.
const maxAllocSize = 64 * 1024

func (c ProgramConfig) withDefaults() ProgramConfig {
	if c.Scale == 0 {
		c.Scale = 10_000
	}
	return c
}

func (c ProgramConfig) scaled(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	if n < 1000 {
		return n
	}
	s := n / c.Scale
	if s < 100 {
		s = 100
	}
	return s
}

// RunPlan reports how a generated workload program was sized.
type RunPlan struct {
	// Iterations is the driver loop count.
	Iterations uint64
	// AllocsPerIteration is the allocation calls one graph traversal
	// performs (path multiplicity included).
	AllocsPerIteration uint64
	// PlannedAllocs is Iterations * AllocsPerIteration.
	PlannedAllocs uint64
	// ComputePerIteration is the modeled compute loop count.
	ComputePerIteration uint64
}

// Program generates the benchmark's workload program: a driver loop
// over the benchmark's call graph in which every allocation site
// exercises its allocator with realistic sizes, interleaved with the
// benchmark's compute intensity. The program is linked and carries the
// SAME call-graph shape as b.Graph() (plus the driver function), so
// instrumentation plans built for it behave like the benchmark's.
func (b *Benchmark) Program(cfg ProgramConfig) (*prog.Program, *RunPlan, error) {
	cfg = cfg.withDefaults()
	g, targets, err := b.Graph()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seedFor(b.Name) ^ 0x5EED))

	isTarget := make(map[callgraph.NodeID]bool, len(targets))
	for _, t := range targets {
		isTarget[t] = true
	}

	// Per-iteration visit counts over the DAG: visits(main)=1,
	// visits(n) = sum of callers' visits. Gives allocations per driver
	// iteration so the loop count can hit the Table IV totals.
	visits := make([]uint64, g.NumNodes())
	visits[g.NodeByName("main")] = 1
	// Nodes were created in roughly topological (layer) order by the
	// generator; a relaxation pass is robust regardless.
	for pass := 0; pass < g.NumNodes(); pass++ {
		changed := false
		for n := 0; n < g.NumNodes(); n++ {
			var v uint64
			if n == 0 {
				v = 1
			}
			for _, s := range g.InSites(callgraph.NodeID(n)) {
				v += visits[g.Edge(s).From]
			}
			if v != visits[n] {
				visits[n] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	var allocSitesPerIter uint64
	for s := 0; s < g.NumEdges(); s++ {
		e := g.Edge(callgraph.SiteID(s))
		if isTarget[e.To] {
			allocSitesPerIter += visits[e.From]
		}
	}
	if allocSitesPerIter == 0 {
		return nil, nil, fmt.Errorf("workload: %s graph has no reachable allocation sites", b.Name)
	}

	totalAllocs := cfg.scaled(b.Mallocs) + cfg.scaled(b.Callocs) + cfg.scaled(b.Reallocs)
	iters := totalAllocs / allocSitesPerIter
	if iters == 0 {
		iters = 1
	}

	size := b.AvgAllocSize
	if size > maxAllocSize {
		size = maxAllocSize
	}

	funcs := make(map[string]*prog.Func, g.NumNodes()+1)
	for n := 0; n < g.NumNodes(); n++ {
		node := callgraph.NodeID(n)
		name := g.Name(node)
		if isTarget[node] {
			continue // allocation APIs are intrinsic, not program funcs
		}
		var body []prog.Stmt
		allocVar := 0
		for _, s := range g.OutSites(node) {
			callee := g.Edge(s).To
			if isTarget[callee] {
				v := fmt.Sprintf("p%d", allocVar)
				allocVar++
				sz := 16 + rng.Uint64()%size
				var st prog.Stmt
				switch g.Name(callee) {
				case "calloc":
					st = prog.Alloc{Dst: v, Fn: heapsim.FnCalloc, Size: prog.C(8), N: prog.C(sz / 8)}
				case "realloc":
					st = prog.ReallocStmt{Dst: v, Ptr: prog.C(0), Size: prog.C(sz)}
				default:
					st = prog.Alloc{Dst: v, Fn: heapsim.FnMalloc, Size: prog.C(sz)}
				}
				body = append(body,
					st,
					prog.Store{Base: prog.V(v), Src: prog.C(0xA110C), N: prog.C(8)},
					prog.FreeStmt{Ptr: prog.V(v)},
				)
				continue
			}
			body = append(body, prog.Call{Callee: g.Name(callee)})
		}
		if len(body) == 0 {
			body = []prog.Stmt{prog.Nop{}}
		}
		if name == "main" {
			// main becomes the per-iteration driver body under a loop.
			driver := &prog.Func{Name: "spec_iter", Body: body}
			funcs["spec_iter"] = driver
			continue
		}
		funcs[name] = &prog.Func{Name: name, Body: body}
	}

	// Per-iteration compute: total modeled compute is allocation count
	// times intensity, clamped so every benchmark's run stays in a
	// practical step budget (the clamp preserves the ordering — sparse
	// allocators remain compute-dominated).
	totalCompute := totalAllocs * b.ComputePerAlloc
	const minCompute, maxCompute = 200_000, 2_500_000
	if totalCompute < minCompute {
		totalCompute = minCompute
	}
	if totalCompute > maxCompute {
		totalCompute = maxCompute
	}
	compute := totalCompute / iters / 4
	funcs["main"] = &prog.Func{Body: []prog.Stmt{
		prog.Assign{Dst: "it", E: prog.C(0)},
		prog.While{Cond: prog.Lt(prog.V("it"), prog.C(iters)), Body: []prog.Stmt{
			prog.Call{Callee: "spec_iter"},
			// Modeled compute between allocation bursts: a counted loop
			// whose body is 3 statements, so each round is ~4 steps.
			prog.Assign{Dst: "j", E: prog.C(0)},
			prog.While{Cond: prog.Lt(prog.V("j"), prog.C(compute)), Body: []prog.Stmt{
				prog.Assign{Dst: "x", E: prog.Add(prog.V("j"), prog.V("it"))},
				prog.Nop{},
				prog.Assign{Dst: "j", E: prog.Add(prog.V("j"), prog.C(1))},
			}},
			prog.Assign{Dst: "it", E: prog.Add(prog.V("it"), prog.C(1))},
		}},
	}}

	p := &prog.Program{Name: b.Name, Funcs: funcs}
	if err := prog.Link(p); err != nil {
		return nil, nil, fmt.Errorf("workload: linking %s: %w", b.Name, err)
	}
	plan := &RunPlan{
		Iterations:          iters,
		AllocsPerIteration:  allocSitesPerIter,
		PlannedAllocs:       iters * allocSitesPerIter,
		ComputePerIteration: compute,
	}
	return p, plan, nil
}

// LiveHeapProgram builds the Figure 9 memory workload: LiveBuffers
// allocations held live for the program's lifetime plus an alloc/free
// churn phase, so the defended arena footprint can be compared against
// native on a realistic steady-state heap.
func (b *Benchmark) LiveHeapProgram(cfg ProgramConfig) (*prog.Program, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seedFor(b.Name) ^ 0x11FE))
	size := b.AvgAllocSize
	if size > maxAllocSize {
		size = maxAllocSize
	}

	var body []prog.Stmt
	for i := 0; i < b.LiveBuffers; i++ {
		v := fmt.Sprintf("live%d", i)
		sz := 16 + rng.Uint64()%size
		body = append(body,
			prog.Alloc{Dst: v, Size: prog.C(sz)},
			prog.Store{Base: prog.V(v), Src: prog.C(uint64(i)), N: prog.C(8)},
		)
	}
	// Churn: allocate and free in a loop to exercise reuse.
	churn := uint64(b.LiveBuffers * 4)
	body = append(body,
		prog.Assign{Dst: "i", E: prog.C(0)},
		prog.While{Cond: prog.Lt(prog.V("i"), prog.C(churn)), Body: []prog.Stmt{
			prog.Alloc{Dst: "tmp", Size: prog.C(16 + size/2)},
			prog.FreeStmt{Ptr: prog.V("tmp")},
			prog.Assign{Dst: "i", E: prog.Add(prog.V("i"), prog.C(1))},
		}},
	)

	p := &prog.Program{
		Name:  b.Name + "-liveheap",
		Funcs: map[string]*prog.Func{"main": {Body: body}},
	}
	if err := prog.Link(p); err != nil {
		return nil, fmt.Errorf("workload: linking live-heap %s: %w", b.Name, err)
	}
	return p, nil
}
