package encoding

import (
	"testing"

	"heaptherapy/internal/callgraph"
)

// checkDenseEquivalence proves the dense Plan/Coder bit-identical to
// the retained map-based reference (reference.go) on one graph: same
// site sets, same per-site constants, same CCIDs over enumerated
// contexts, and same Decode paths/errors — for every scheme × encoder.
func checkDenseEquivalence(t testing.TB, g *callgraph.Graph, targets []callgraph.NodeID) {
	ctxs := g.EnumerateContexts(targets, 200)
	for _, scheme := range AllSchemes() {
		dp, err := NewPlan(scheme, g, targets)
		if err != nil {
			t.Fatalf("Plan(%v): %v", scheme, err)
		}
		rp, err := newRefPlan(scheme, g, targets)
		if err != nil {
			t.Fatalf("newRefPlan(%v): %v", scheme, err)
		}

		// Site sets must match exactly, the dense list in ascending order.
		ids := dp.SiteIDs()
		if len(ids) != len(rp.sites) {
			t.Fatalf("%v: dense has %d sites, reference %d", scheme, len(ids), len(rp.sites))
		}
		for i, s := range ids {
			if !rp.sites[s] || (i > 0 && ids[i-1] >= s) {
				t.Fatalf("%v: dense site[%d] = %d is out of order or not in the reference set", scheme, i, s)
			}
		}
		// Instrumented must agree on every ID, including out-of-range
		// probes the map reference tolerates by construction.
		for s := -2; s <= g.NumEdges()+2; s++ {
			sid := callgraph.SiteID(s)
			if dp.Instrumented(sid) != rp.instrumented(sid) {
				t.Fatalf("%v: Instrumented(%d): dense %v, reference %v",
					scheme, s, dp.Instrumented(sid), rp.instrumented(sid))
			}
		}

		for _, kind := range AllEncoders() {
			dc, err := NewCoder(kind, g, dp)
			if err != nil {
				t.Fatalf("NewCoder(%v, %v): %v", kind, scheme, err)
			}
			rc, err := newRefCoder(kind, g, rp)
			if err != nil {
				t.Fatalf("newRefCoder(%v, %v): %v", kind, scheme, err)
			}
			for s := 0; s < g.NumEdges(); s++ {
				sid := callgraph.SiteID(s)
				if dc.SiteConst(sid) != rc.consts[s] {
					t.Fatalf("%v/%v: const[%d]: dense %#x, reference %#x",
						scheme, kind, s, dc.SiteConst(sid), rc.consts[s])
				}
				u := dc.CompileSite(sid)
				if got := u.Apply(12345); got != rc.update(12345, sid) {
					t.Fatalf("%v/%v: site %d: compiled Apply %#x, reference update %#x",
						scheme, kind, s, got, rc.update(12345, sid))
				}
			}
			for _, path := range ctxs {
				if dc.EncodePath(path) != rc.encodePath(path) {
					t.Fatalf("%v/%v: EncodePath(%v): dense %#x, reference %#x",
						scheme, kind, path, dc.EncodePath(path), rc.encodePath(path))
				}
				if dc.TraversesBackEdge(path) != rc.traversesBackEdge(path) {
					t.Fatalf("%v/%v: TraversesBackEdge(%v) disagrees", scheme, kind, path)
				}
				if kind == EncoderPCC || len(path) == 0 || dc.TraversesBackEdge(path) {
					continue
				}
				root := g.Edge(path[0]).From
				target := g.Edge(path[len(path)-1]).To
				ccid := dc.EncodePath(path)
				dPath, dErr := dc.Decode(root, target, ccid)
				rPath, rErr := rc.decode(root, target, ccid)
				if (dErr == nil) != (rErr == nil) {
					t.Fatalf("%v/%v: Decode(%#x): dense err %v, reference err %v",
						scheme, kind, ccid, dErr, rErr)
				}
				if dErr != nil {
					if dErr.Error() != rErr.Error() {
						t.Fatalf("%v/%v: Decode(%#x) errors differ: %q vs %q",
							scheme, kind, ccid, dErr, rErr)
					}
					continue
				}
				if len(dPath) != len(rPath) {
					t.Fatalf("%v/%v: Decode(%#x): dense path %v, reference %v",
						scheme, kind, ccid, dPath, rPath)
				}
				for i := range dPath {
					if dPath[i] != rPath[i] {
						t.Fatalf("%v/%v: Decode(%#x): dense path %v, reference %v",
							scheme, kind, ccid, dPath, rPath)
					}
				}
			}
		}
	}
}

// TestDenseEquivalenceFigure2 pins the dense representations to the
// reference on the paper's example graph.
func TestDenseEquivalenceFigure2(t *testing.T) {
	g, targets := callgraph.Figure2()
	checkDenseEquivalence(t, g, targets)
}

// TestDenseEquivalenceRandom runs the differential check over seeded
// random graphs spanning recursion, duplicate sites, and sparse target
// reachability.
func TestDenseEquivalenceRandom(t *testing.T) {
	configs := []callgraph.GenConfig{
		{Funcs: 40, Layers: 4, FanOut: 2.0, Targets: []string{"malloc"},
			AllocCallerFrac: 0.3, DupSiteFrac: 0.2, BackEdgeFrac: 0},
		{Funcs: 120, Layers: 6, FanOut: 2.5, Targets: []string{"malloc", "calloc", "memalign"},
			AllocCallerFrac: 0.25, DupSiteFrac: 0.15, BackEdgeFrac: 0.05},
		{Funcs: 60, Layers: 5, FanOut: 3.0, Targets: []string{"malloc", "calloc"},
			AllocCallerFrac: 0.1, DupSiteFrac: 0.4, BackEdgeFrac: 0.15},
	}
	for ci, cfg := range configs {
		for seed := int64(0); seed < 6; seed++ {
			cfg.Seed = seed
			g, targets, err := callgraph.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("", func(t *testing.T) {
				checkDenseEquivalence(t, g, targets)
			})
			_ = ci
		}
	}
}

// TestInstrumentedOutOfRange locks the bounds-safety contract: probing
// a plan (or coder) with SiteIDs outside the planned graph must report
// uninstrumented rather than fault.
func TestInstrumentedOutOfRange(t *testing.T) {
	g, targets := callgraph.Figure2()
	for _, scheme := range AllSchemes() {
		p := mustPlan(t, scheme, g, targets)
		for _, s := range []callgraph.SiteID{-1, -100, callgraph.SiteID(g.NumEdges()), callgraph.SiteID(g.NumEdges() + 37)} {
			if p.Instrumented(s) {
				t.Errorf("%v: Instrumented(%d) = true for out-of-range site", scheme, s)
			}
		}
		c, err := NewCoder(EncoderPCCE, g, p)
		if err != nil {
			t.Fatal(err)
		}
		if c.Instrumented(callgraph.SiteID(g.NumEdges() + 1)) {
			t.Errorf("%v: coder Instrumented out-of-range = true", scheme)
		}
		if u := c.CompileSite(callgraph.SiteID(-5)); u.Instrumented {
			t.Errorf("%v: CompileSite(-5).Instrumented = true", scheme)
		}
	}
}

// FuzzDensePlanEquivalence drives the same differential oracle from
// fuzzed graph-generator parameters: any divergence between the dense
// planner/coder and the map-based reference — site sets, constants,
// EncodePath, or Decode round trips, for all schemes × encoders — is a
// crash.
func FuzzDensePlanEquivalence(f *testing.F) {
	f.Add(uint8(40), uint8(4), uint8(20), uint8(30), uint8(20), uint8(5), int64(1), uint8(1))
	f.Add(uint8(120), uint8(6), uint8(25), uint8(25), uint8(15), uint8(0), int64(7), uint8(3))
	f.Add(uint8(12), uint8(2), uint8(35), uint8(80), uint8(50), uint8(30), int64(42), uint8(2))
	f.Fuzz(func(t *testing.T, funcs, layers, fanOut, allocFrac, dupFrac, backFrac uint8, seed int64, nTargets uint8) {
		allNames := []string{"malloc", "calloc", "memalign"}
		cfg := callgraph.GenConfig{
			Funcs:           2 + int(funcs)%150,
			FanOut:          0.5 + float64(fanOut%40)/10,
			Targets:         allNames[:1+int(nTargets)%3],
			AllocCallerFrac: float64(allocFrac%101) / 100,
			DupSiteFrac:     float64(dupFrac%101) / 100,
			BackEdgeFrac:    float64(backFrac%101) / 100,
			Seed:            seed,
		}
		cfg.Layers = 2 + int(layers)%7
		if cfg.Layers > cfg.Funcs {
			cfg.Layers = cfg.Funcs
		}
		g, targets, err := callgraph.Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		checkDenseEquivalence(t, g, targets)
	})
}
