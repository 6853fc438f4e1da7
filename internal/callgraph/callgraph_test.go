package callgraph

import (
	"sort"
	"strings"
	"testing"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	a := b.AddFunc("A")
	if got := b.AddFunc("A"); got != a {
		t.Errorf("AddFunc twice returned %v then %v, want idempotent", a, got)
	}
	s1 := b.AddCall("A", "B")
	s2 := b.AddCall("A", "B") // second static site, same pair
	g := b.Build()

	if g.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if s1 == s2 {
		t.Error("two call sites between the same pair got the same SiteID")
	}
	if g.Name(g.NodeByName("B")) != "B" {
		t.Error("NodeByName/Name round trip failed")
	}
	if g.NodeByName("missing") != InvalidNode {
		t.Error("NodeByName(missing) != InvalidNode")
	}
}

func TestSiteLabels(t *testing.T) {
	b := NewBuilder()
	s1 := b.AddCall("A", "B")
	s2 := b.AddCall("A", "B")
	s3 := b.AddCall("A", "C")
	g := b.Build()

	if got := g.SiteLabel(s1); got != "A->B#0" {
		t.Errorf("SiteLabel(s1) = %q, want A->B#0", got)
	}
	if got := g.SiteLabel(s2); got != "A->B#1" {
		t.Errorf("SiteLabel(s2) = %q, want A->B#1", got)
	}
	if got := g.SiteLabel(s3); got != "A->C#0" {
		t.Errorf("SiteLabel(s3) = %q, want A->C#0", got)
	}
}

func TestReachesTargetsFigure2(t *testing.T) {
	g, targets := Figure2()
	reaches := g.ReachesTargets(targets)

	wantReach := map[string]bool{
		"A": true, "B": true, "C": true, "E": true, "F": true,
		"T1": true, "T2": true,
		"D": false, "H": false, "I": false,
	}
	for name, want := range wantReach {
		n := g.NodeByName(name)
		if n == InvalidNode {
			t.Fatalf("node %s missing", name)
		}
		if reaches[n] != want {
			t.Errorf("reaches[%s] = %v, want %v", name, reaches[n], want)
		}
	}
}

// TestTargetReachingSitesFigure2: the call sites whose callee reaches a
// target are Figure 2's TCS set.
func TestTargetReachingSitesFigure2(t *testing.T) {
	g, targets := Figure2()
	reaches := g.ReachesTargets(targets)

	var labels []string
	for s := 0; s < g.NumEdges(); s++ {
		if reaches[g.Edge(SiteID(s)).To] {
			labels = append(labels, g.SiteLabel(SiteID(s)))
		}
	}
	sort.Strings(labels)
	want := []string{
		"A->B#0", "A->C#0", "B->T1#0", "C->E#0",
		"C->F#0", "E->T2#0", "F->T1#0", "F->T2#0",
	}
	if len(labels) != len(want) {
		t.Fatalf("TCS set = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("TCS set = %v, want %v", labels, want)
		}
	}
}

func TestReachesHandlesCycles(t *testing.T) {
	b := NewBuilder()
	b.AddCall("main", "A")
	b.AddCall("A", "B")
	b.AddCall("B", "A") // recursion
	b.AddCall("B", "malloc")
	g := b.Build()
	targets := []NodeID{g.NodeByName("malloc")}
	reaches := g.ReachesTargets(targets)
	for _, name := range []string{"main", "A", "B", "malloc"} {
		if !reaches[g.NodeByName(name)] {
			t.Errorf("reaches[%s] = false, want true despite cycle", name)
		}
	}
}

func TestRoots(t *testing.T) {
	g, _ := Figure2()
	roots := g.Roots()
	var names []string
	for _, r := range roots {
		names = append(names, g.Name(r))
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "A" || names[1] != "D" {
		t.Errorf("Roots = %v, want [A D]", names)
	}
}

func TestEnumerateContextsFigure2(t *testing.T) {
	g, targets := Figure2()
	paths := g.EnumerateContexts(targets, 0)
	// Contexts: A-B-T1, A-C-E-T2, A-C-F-T1, A-C-F-T2.
	if len(paths) != 4 {
		t.Fatalf("EnumerateContexts found %d paths, want 4", len(paths))
	}
	var rendered []string
	for _, p := range paths {
		var parts []string
		for _, s := range p {
			parts = append(parts, g.SiteLabel(s))
		}
		rendered = append(rendered, strings.Join(parts, ","))
	}
	sort.Strings(rendered)
	want := []string{
		"A->B#0,B->T1#0",
		"A->C#0,C->E#0,E->T2#0",
		"A->C#0,C->F#0,F->T1#0",
		"A->C#0,C->F#0,F->T2#0",
	}
	for i := range want {
		if rendered[i] != want[i] {
			t.Fatalf("contexts = %v, want %v", rendered, want)
		}
	}
}

func TestEnumerateContextsLimit(t *testing.T) {
	g, targets := Figure2()
	paths := g.EnumerateContexts(targets, 2)
	if len(paths) != 2 {
		t.Errorf("limited enumeration returned %d paths, want 2", len(paths))
	}
}

func TestEnumerateContextsSkipsCycles(t *testing.T) {
	b := NewBuilder()
	b.AddCall("main", "A")
	b.AddCall("A", "A") // self recursion
	b.AddCall("A", "malloc")
	g := b.Build()
	paths := g.EnumerateContexts([]NodeID{g.NodeByName("malloc")}, 0)
	if len(paths) != 1 {
		t.Fatalf("contexts with self-loop = %d paths, want 1", len(paths))
	}
}

func TestDOT(t *testing.T) {
	g, targets := Figure2()
	instr := map[SiteID]bool{g.OutSites(g.NodeByName("A"))[0]: true}
	dot := g.DOT(targets, instr)
	for _, want := range []string{"digraph", `"T1"`, "doublecircle", "color=red"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{Funcs: 1, Layers: 2, FanOut: 2, Targets: []string{"malloc"}},
		{Funcs: 10, Layers: 1, FanOut: 2, Targets: []string{"malloc"}},
		{Funcs: 10, Layers: 3, FanOut: 2},
		{Funcs: 10, Layers: 3, FanOut: 0, Targets: []string{"malloc"}},
	}
	for i, cfg := range bad {
		if _, _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate accepted invalid config %+v", i, cfg)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{
		Funcs: 50, Layers: 5, FanOut: 3,
		Targets:         []string{"malloc", "calloc"},
		AllocCallerFrac: 0.3, DupSiteFrac: 0.1, Seed: 7,
	}
	g1, t1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, t2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Error("same seed produced different graphs")
	}
	if len(t1) != len(t2) {
		t.Error("same seed produced different target sets")
	}
	if g1.DOT(t1, nil) != g2.DOT(t2, nil) {
		t.Error("same seed produced structurally different graphs")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := GenConfig{
		Funcs: 200, Layers: 8, FanOut: 3,
		Targets:         []string{"malloc"},
		AllocCallerFrac: 0.2, Seed: 11,
	}
	g, targets, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeByName("main") != 0 {
		t.Error("main is not node 0")
	}
	if len(targets) != 1 {
		t.Fatalf("targets = %v, want 1 entry", targets)
	}
	// main must reach the allocation function.
	reaches := g.ReachesTargets(targets)
	if !reaches[g.NodeByName("main")] {
		t.Error("main cannot reach malloc in generated graph")
	}
	// The TCS set must be a strict subset of all sites for a sparse
	// alloc-caller fraction.
	tcs := 0
	for s := 0; s < g.NumEdges(); s++ {
		if reaches[g.Edge(SiteID(s)).To] {
			tcs++
		}
	}
	if tcs >= g.NumEdges() {
		t.Errorf("TCS set (%d) is not smaller than all sites (%d)", tcs, g.NumEdges())
	}
}

func TestGenerateWithBackEdges(t *testing.T) {
	cfg := GenConfig{
		Funcs: 100, Layers: 6, FanOut: 3,
		Targets:         []string{"malloc"},
		AllocCallerFrac: 0.25, BackEdgeFrac: 0.2, Seed: 3,
	}
	g, targets, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Analyses must terminate and be sane even with cycles.
	reaches := g.ReachesTargets(targets)
	n := 0
	for _, r := range reaches {
		if r {
			n++
		}
	}
	if n == 0 {
		t.Error("no node reaches targets")
	}
	paths := g.EnumerateContexts(targets, 1000)
	if len(paths) == 0 {
		t.Error("no acyclic contexts found")
	}
}
