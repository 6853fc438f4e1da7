package encoding

import (
	"errors"
	"fmt"
	"testing"

	"heaptherapy/internal/callgraph"
)

func mustCoder(t *testing.T, kind EncoderKind, g *callgraph.Graph, plan *Plan) *Coder {
	t.Helper()
	c, err := NewCoder(kind, g, plan)
	if err != nil {
		t.Fatalf("NewCoder(%v, %v): %v", kind, plan.Scheme, err)
	}
	return c
}

// TestDistinguishabilityFigure2 checks the paper's core claim on its
// own example: every scheme × encoder distinguishes the four contexts.
func TestDistinguishabilityFigure2(t *testing.T) {
	g, targets := callgraph.Figure2()
	for _, scheme := range AllSchemes() {
		for _, kind := range AllEncoders() {
			t.Run(fmt.Sprintf("%v/%v", scheme, kind), func(t *testing.T) {
				plan := mustPlan(t, scheme, g, targets)
				coder := mustCoder(t, kind, g, plan)
				n, collisions := VerifyDistinguishability(g, coder, 0)
				if n != 4 {
					t.Fatalf("examined %d contexts, want 4", n)
				}
				for _, c := range collisions {
					t.Errorf("collision: %v", c)
				}
			})
		}
	}
}

// TestDistinguishabilityRandomGraphs property-tests distinguishability
// over randomly generated call graphs for every scheme and encoder.
// This is the strongest check that the targeted optimizations are
// correct: pruning must never merge two same-target contexts.
func TestDistinguishabilityRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, targets, err := callgraph.Generate(callgraph.GenConfig{
			Funcs: 80, Layers: 6, FanOut: 2.2,
			Targets:         []string{"malloc", "calloc", "memalign"},
			AllocCallerFrac: 0.3, DupSiteFrac: 0.25, BackEdgeFrac: 0.1,
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range AllSchemes() {
			for _, kind := range AllEncoders() {
				plan := mustPlan(t, scheme, g, targets)
				coder := mustCoder(t, kind, g, plan)
				n, collisions := VerifyDistinguishability(g, coder, 20000)
				if n == 0 {
					t.Fatalf("seed %d: no contexts to verify", seed)
				}
				for _, c := range collisions {
					t.Errorf("seed %d %v/%v: collision %v", seed, scheme, kind, c)
				}
			}
		}
	}
}

// TestPCCUpdateFormula pins the paper's arithmetic: V = 3*t + c.
func TestPCCUpdateFormula(t *testing.T) {
	g, targets := callgraph.Figure2()
	plan := mustPlan(t, SchemeFCS, g, targets)
	coder := mustCoder(t, EncoderPCC, g, plan)
	s := callgraph.SiteID(0)
	c := coder.SiteConst(s)
	if c == 0 {
		t.Fatal("PCC site constant is zero")
	}
	if got := coder.Update(7, s); got != 3*7+c {
		t.Errorf("Update(7) = %d, want 3*7+%d", got, c)
	}
}

// TestAdditiveUpdateFormula pins PCCE's V = t + c.
func TestAdditiveUpdateFormula(t *testing.T) {
	g, targets := callgraph.Figure2()
	plan := mustPlan(t, SchemeFCS, g, targets)
	coder := mustCoder(t, EncoderPCCE, g, plan)
	for s := 0; s < g.NumEdges(); s++ {
		sid := callgraph.SiteID(s)
		c := coder.SiteConst(sid)
		if got := coder.Update(100, sid); got != 100+c {
			t.Errorf("site %d: Update(100) = %d, want %d", s, got, 100+c)
		}
	}
}

// TestUninstrumentedSiteLeavesV checks pruned sites are free.
func TestUninstrumentedSiteLeavesV(t *testing.T) {
	g, targets := callgraph.Figure2()
	plan := mustPlan(t, SchemeSlim, g, targets)
	coder := mustCoder(t, EncoderPCC, g, plan)
	bt1 := g.OutSites(g.NodeByName("B"))[0] // B->T1, B's only call
	if coder.Instrumented(bt1) {
		t.Fatal("B->T1 should be pruned under Slim")
	}
	if got := coder.Update(12345, bt1); got != 12345 {
		t.Errorf("Update through pruned site = %d, want 12345", got)
	}
}

// TestPCCEDecodeRoundTrip checks decode(encode(path)) == path for all
// contexts under FCS, TCS and Slim plans.
func TestPCCEDecodeRoundTrip(t *testing.T) {
	g, targets := callgraph.Figure2()
	root := g.NodeByName("A")
	for _, scheme := range []Scheme{SchemeFCS, SchemeTCS, SchemeSlim, SchemeIncremental} {
		plan := mustPlan(t, scheme, g, targets)
		coder := mustCoder(t, EncoderPCCE, g, plan)
		for _, path := range g.EnumerateContexts(targets, 0) {
			target := g.Edge(path[len(path)-1]).To
			ccid := coder.EncodePath(path)
			got, err := coder.Decode(root, target, ccid)
			if err != nil {
				t.Errorf("%v: Decode(%#x): %v", scheme, ccid, err)
				continue
			}
			if !samePath(got, path) {
				t.Errorf("%v: Decode(%#x) = %v, want %v", scheme, ccid, got, path)
			}
		}
	}
}

// TestPCCEDecodeRandomGraphs round-trips decoding on random DAGs.
func TestPCCEDecodeRandomGraphs(t *testing.T) {
	for seed := int64(20); seed < 25; seed++ {
		g, targets, err := callgraph.Generate(callgraph.GenConfig{
			Funcs: 60, Layers: 5, FanOut: 2,
			Targets:         []string{"malloc", "calloc"},
			AllocCallerFrac: 0.3, DupSiteFrac: 0.2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		root := g.NodeByName("main")
		for _, scheme := range AllSchemes() {
			plan := mustPlan(t, scheme, g, targets)
			coder := mustCoder(t, EncoderPCCE, g, plan)
			paths := g.EnumerateContexts(targets, 2000)
			for _, path := range paths {
				if g.Edge(path[0]).From != root {
					continue // decoding is defined from the entry point
				}
				target := g.Edge(path[len(path)-1]).To
				ccid := coder.EncodePath(path)
				got, err := coder.Decode(root, target, ccid)
				if err != nil {
					t.Errorf("seed %d %v: Decode(%#x): %v", seed, scheme, ccid, err)
					continue
				}
				if !samePath(got, path) {
					t.Errorf("seed %d %v: Decode(%#x) = %v, want %v", seed, scheme, ccid, got, path)
				}
			}
		}
	}
}

// TestPCCDoesNotDecode pins the paper's characterization of PCC.
func TestPCCDoesNotDecode(t *testing.T) {
	g, targets := callgraph.Figure2()
	plan := mustPlan(t, SchemeFCS, g, targets)
	coder := mustCoder(t, EncoderPCC, g, plan)
	_, err := coder.Decode(g.NodeByName("A"), targets[0], 42)
	if !errors.Is(err, ErrNoDecode) {
		t.Errorf("PCC Decode err = %v, want ErrNoDecode", err)
	}
}

// TestDeltaPathTargetRanges verifies that DeltaPath CCIDs for different
// targets occupy disjoint high-bit ranges under FCS.
func TestDeltaPathTargetRanges(t *testing.T) {
	g, targets := callgraph.Figure2()
	plan := mustPlan(t, SchemeFCS, g, targets)
	coder := mustCoder(t, EncoderDeltaPath, g, plan)
	for _, path := range g.EnumerateContexts(targets, 0) {
		target := g.Edge(path[len(path)-1]).To
		ccid := coder.EncodePath(path)
		wantIdx := -1
		for i, tgt := range plan.Targets {
			if tgt == target {
				wantIdx = i
			}
		}
		if got := int(ccid >> deltaTargetShift); got != wantIdx {
			t.Errorf("ccid %#x high bits = %d, want target index %d", ccid, got, wantIdx)
		}
	}
}

// TestDecodeRejectsGarbage checks error paths.
func TestDecodeRejectsGarbage(t *testing.T) {
	g, targets := callgraph.Figure2()
	plan := mustPlan(t, SchemeFCS, g, targets)
	coder := mustCoder(t, EncoderPCCE, g, plan)
	if _, err := coder.Decode(g.NodeByName("A"), targets[0], 0xFFFFFFFF); err == nil {
		t.Error("Decode of garbage CCID succeeded")
	}
	if _, err := coder.Decode(g.NodeByName("A"), g.NodeByName("B"), 0); err == nil {
		t.Error("Decode with non-target function succeeded")
	}
}

// TestEncodePathDeterminism: same path, same CCID, across coders built
// twice from the same inputs.
func TestEncodePathDeterminism(t *testing.T) {
	g, targets := callgraph.Figure2()
	for _, kind := range AllEncoders() {
		plan := mustPlan(t, SchemeSlim, g, targets)
		c1 := mustCoder(t, kind, g, plan)
		c2 := mustCoder(t, kind, g, plan)
		for _, path := range g.EnumerateContexts(targets, 0) {
			if c1.EncodePath(path) != c2.EncodePath(path) {
				t.Errorf("%v: nondeterministic encoding for %v", kind, path)
			}
		}
	}
}

// TestRecursiveExecutionEncoding simulates the runtime discipline on a
// recursive program: recursion must not break termination or the
// base-context encoding.
func TestRecursiveExecutionEncoding(t *testing.T) {
	b := callgraph.NewBuilder()
	sMainA := b.AddCall("main", "A")
	sAA := b.AddCall("A", "A") // direct recursion
	sAM := b.AddCall("A", "malloc")
	g := b.Build()
	targets := []callgraph.NodeID{g.NodeByName("malloc")}
	plan := mustPlan(t, SchemeTCS, g, targets)
	coder := mustCoder(t, EncoderPCCE, g, plan)

	// The recursive edge is a back edge: constant 0, so contexts at
	// different recursion depths intentionally collapse.
	depth1 := coder.EncodePath([]callgraph.SiteID{sMainA, sAM})
	depth3 := coder.EncodePath([]callgraph.SiteID{sMainA, sAA, sAA, sAM})
	if depth1 != depth3 {
		t.Errorf("recursive contexts encode to %#x and %#x; additive encoding should collapse recursion", depth1, depth3)
	}
}

func TestEncoderKindString(t *testing.T) {
	want := map[EncoderKind]string{
		EncoderPCC:       "PCC",
		EncoderPCCE:      "PCCE",
		EncoderDeltaPath: "DeltaPath",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestDeltaPathTargetOf: the target function is recoverable from a
// DeltaPath CCID under full instrumentation: its per-target base range
// indexes the plan's targets.
func TestDeltaPathTargetOf(t *testing.T) {
	g, targets := callgraph.Figure2()
	plan := mustPlan(t, SchemeFCS, g, targets)
	coder := mustCoder(t, EncoderDeltaPath, g, plan)
	for _, path := range g.EnumerateContexts(targets, 0) {
		want := g.Edge(path[len(path)-1]).To
		idx := coder.EncodePath(path) >> deltaTargetShift
		if idx >= uint64(len(plan.Targets)) || plan.Targets[idx] != want {
			t.Errorf("CCID base index %d; want target %v", idx, want)
		}
	}
}

// TestCCIDStabilityAcrossReleases pins concrete CCID values for the
// Figure 2 contexts. Deployed patch configuration files embed CCIDs;
// if a code change alters the constants' derivation, every deployed
// patch silently stops matching — this test makes that loud instead.
func TestCCIDStabilityAcrossReleases(t *testing.T) {
	g, targets := callgraph.Figure2()
	plan := mustPlan(t, SchemeIncremental, g, targets)

	pcc := mustCoder(t, EncoderPCC, g, plan)
	pcce := mustCoder(t, EncoderPCCE, g, plan)
	paths := g.EnumerateContexts(targets, 0)
	if len(paths) != 4 {
		t.Fatal("figure 2 context count changed")
	}
	gotPCC := make([]uint64, len(paths))
	gotPCCE := make([]uint64, len(paths))
	for i, p := range paths {
		gotPCC[i] = pcc.EncodePath(p)
		gotPCCE[i] = pcce.EncodePath(p)
	}
	// PCCE assigns small dense IDs; pin them exactly.
	wantPCCE := []uint64{0, 1, 2, 2}
	for i := range wantPCCE {
		if gotPCCE[i] != wantPCCE[i] {
			t.Errorf("PCCE ccid[%d] = %d, want %d (constant derivation changed!)", i, gotPCCE[i], wantPCCE[i])
		}
	}
	// Contexts 2 and 3 (A-C-F-T1 and A-C-F-T2) intentionally share a
	// CCID under Incremental: the pruned F sites leave the pair
	// {TargetFn, CCID} to distinguish them.
	if gotPCCE[2] != gotPCCE[3] || gotPCC[2] != gotPCC[3] {
		t.Error("false-branching contexts no longer share CCIDs; Incremental semantics changed")
	}
	// PCC constants come from splitmix64 of the site ID; pin one value.
	const wantFirstPCC = uint64(0x6e789e6aa1b965f4)
	if gotPCC[0] != wantFirstPCC {
		t.Errorf("PCC ccid[0] = %#x, want %#x (hash derivation changed; deployed patches would break)",
			gotPCC[0], wantFirstPCC)
	}
}
