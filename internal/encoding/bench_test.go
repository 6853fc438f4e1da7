package encoding

// Benchmarks and allocation pins for the planning and update hot
// paths: a plan allocates its output and one set of scratch, and the
// per-call update surface (Coder.Update, a precompiled
// SiteUpdate.Apply, Plan.Instrumented) is allocation-free.

import (
	"testing"

	"heaptherapy/internal/callgraph"
)

// benchGraph approximates a perlbench-sized call graph: a few hundred
// functions, duplicate sites, a sprinkle of recursion.
func benchGraph(tb testing.TB) (*callgraph.Graph, []callgraph.NodeID) {
	tb.Helper()
	g, targets, err := callgraph.Generate(callgraph.GenConfig{
		Funcs: 220, Layers: 8, FanOut: 3.0,
		Targets:         []string{"malloc", "calloc", "memalign"},
		AllocCallerFrac: 0.4, DupSiteFrac: 0.25, BackEdgeFrac: 0.05,
		Seed: 17,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g, targets
}

// BenchmarkEncodingPlan measures planning per scheme, scratch
// included.
func BenchmarkEncodingPlan(b *testing.B) {
	g, targets := benchGraph(b)
	for _, scheme := range AllSchemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewPlan(scheme, g, targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoderUpdate measures the per-call update arithmetic: one
// Coder.Update per instrumented site, and the precompiled
// SiteUpdate.Apply variant the engines use.
func BenchmarkCoderUpdate(b *testing.B) {
	g, targets := benchGraph(b)
	plan, err := NewPlan(SchemeIncremental, g, targets)
	if err != nil {
		b.Fatal(err)
	}
	sites := plan.SiteIDs()
	if len(sites) == 0 {
		b.Fatal("benchmark graph has no Incremental sites")
	}
	for _, kind := range AllEncoders() {
		coder, err := NewCoder(kind, g, plan)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var v uint64
			for i := 0; i < b.N; i++ {
				v = coder.Update(v, sites[i%len(sites)])
			}
			sinkUint = v
		})
		b.Run(kind.String()+"/compiled", func(b *testing.B) {
			upd := make([]SiteUpdate, len(sites))
			for i, s := range sites {
				upd[i] = coder.CompileSite(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var v uint64
			for i := 0; i < b.N; i++ {
				v = upd[i%len(upd)].Apply(v)
			}
			sinkUint = v
		})
	}
}

var sinkUint uint64

// TestUpdatePathZeroAlloc pins the whole per-call update surface at
// zero allocations: Update, CompileSite, Apply, and Instrumented, for
// every scheme × encoder.
func TestUpdatePathZeroAlloc(t *testing.T) {
	g, targets := benchGraph(t)
	for _, scheme := range AllSchemes() {
		plan, err := NewPlan(scheme, g, targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range AllEncoders() {
			coder, err := NewCoder(kind, g, plan)
			if err != nil {
				t.Fatal(err)
			}
			var v uint64
			allocs := testing.AllocsPerRun(100, func() {
				for s := 0; s < g.NumEdges(); s++ {
					sid := callgraph.SiteID(s)
					if plan.Instrumented(sid) {
						v = coder.Update(v, sid)
					}
					v = coder.CompileSite(sid).Apply(v)
				}
			})
			if allocs != 0 {
				t.Errorf("%v/%v: update path allocates %.1f objects/run, want 0", scheme, kind, allocs)
			}
			sinkUint = v
		}
	}
}

// TestPlannerSteadyStateAllocs pins what one NewPlan call allocates:
// its output (the Plan, its dense site set, the id list, and the
// copied target slice) plus one set of scratch — the reachability
// result and BFS worklist, and the out-edge counts for Slim and
// Incremental. Incremental runs one search per target, so the bound
// fails if its passes stop sharing that scratch.
func TestPlannerSteadyStateAllocs(t *testing.T) {
	g, targets := benchGraph(t)
	if len(targets) < 2 {
		t.Fatalf("benchmark graph has %d targets; the pin needs several", len(targets))
	}
	// Plan struct + sites []bool + ids slice + targets copy.
	const output = 4
	scratch := map[Scheme]float64{SchemeFCS: 0, SchemeTCS: 2, SchemeSlim: 3, SchemeIncremental: 3}
	for _, scheme := range AllSchemes() {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := NewPlan(scheme, g, targets); err != nil {
				t.Fatal(err)
			}
		})
		if want := output + scratch[scheme]; allocs > want {
			t.Errorf("%v: plan allocates %.1f objects, want <= %.0f (output + one set of scratch)", scheme, allocs, want)
		}
	}
}
