// Package encoding implements calling-context encoding and the paper's
// targeted calling-context encoding optimizations (Section IV).
//
// A calling-context encoding scheme has two independent axes:
//
//   - the *planner* decides WHICH call sites are instrumented:
//     FCS (all sites, as in the original PCC/PCCE/DeltaPath papers),
//     TCS (only sites that can reach a target function),
//     Slim (TCS minus sites in non-branching nodes), and
//     Incremental (only sites in true branching nodes, Algorithm 1);
//
//   - the *encoder* decides HOW an instrumented site updates the
//     thread-local context value V: PCC uses the multiplicative hash
//     V = 3*t + c, PCCE-style encoding uses precise additive constants
//     from Ball-Larus path numbering (and supports decoding), and the
//     DeltaPath-style encoder uses additive constants in per-target
//     disjoint ranges.
//
// Update discipline. This implementation maintains the invariant that,
// at every program point, V encodes exactly the instrumented edges on
// the *current* call stack: each function reads t = V at its prologue,
// sets V = Update(t, c) before an instrumented call, and restores V = t
// when that call returns. PCC as published instead recomputes V at
// every call site and never restores; that is equivalent under full
// instrumentation but becomes execution-order dependent once sites are
// pruned (a completed call into an instrumented subtree would leave a
// stale V behind for a later pruned site). The restore discipline — one
// extra move per instrumented site, exactly PCCE's +c/-c pattern —
// keeps every scheme deterministic under all four planners.
package encoding

import (
	"fmt"
	"sort"
	"strings"

	"heaptherapy/internal/callgraph"
)

// Scheme enumerates the instrumentation planners.
type Scheme uint8

// Planner schemes, in increasing order of optimization.
const (
	// SchemeFCS instruments every call site (Full-Call-Site, the
	// baseline used by PCC/PCCE/DeltaPath).
	SchemeFCS Scheme = iota + 1
	// SchemeTCS instruments only target-reaching call sites.
	SchemeTCS
	// SchemeSlim additionally prunes sites in non-branching nodes.
	SchemeSlim
	// SchemeIncremental instruments only sites in true branching nodes,
	// distinguishing contexts by the {TargetFn, CCID} pair.
	SchemeIncremental
)

func (s Scheme) String() string {
	switch s {
	case SchemeFCS:
		return "FCS"
	case SchemeTCS:
		return "TCS"
	case SchemeSlim:
		return "Slim"
	case SchemeIncremental:
		return "Incremental"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// AllSchemes lists the planners in evaluation order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeFCS, SchemeTCS, SchemeSlim, SchemeIncremental}
}

// ParseScheme parses a scheme name (case sensitive, as printed).
func ParseScheme(s string) (Scheme, error) {
	names := make([]string, 0, len(AllSchemes()))
	for _, sc := range AllSchemes() {
		if sc.String() == s {
			return sc, nil
		}
		names = append(names, sc.String())
	}
	return 0, fmt.Errorf("encoding: unknown scheme %q (valid: %s)", s, strings.Join(names, ", "))
}

// Plan is the result of instrumentation planning: the set of call sites
// to instrument for a given graph and target set. The site set is held
// densely — one bool per SiteID — so Instrumented is an array load on
// the interpreter's per-call path rather than a map probe.
type Plan struct {
	// Scheme is the planner that produced this plan.
	Scheme Scheme
	// Targets are the functions whose calling contexts are of interest
	// (the allocation APIs, for HeapTherapy+).
	Targets []callgraph.NodeID

	// sites is the instrumented set, indexed by SiteID.
	sites []bool
	// ids lists the instrumented SiteIDs in ascending order.
	ids []callgraph.SiteID
}

// Instrumented reports whether site s is instrumented under this plan.
// Out-of-range SiteIDs (negative, or beyond the planned graph's edge
// count) are never instrumented.
func (p *Plan) Instrumented(s callgraph.SiteID) bool {
	return s >= 0 && int(s) < len(p.sites) && p.sites[s]
}

// NumSites returns the size of the instrumentation set.
func (p *Plan) NumSites() int { return len(p.ids) }

// SiteIDs returns the instrumented SiteIDs in ascending order. The
// slice is shared with the plan; callers must not mutate it.
func (p *Plan) SiteIDs() []callgraph.SiteID { return p.ids }

// SiteSet materializes the instrumented set as a map, for callers that
// still want set semantics (DOT rendering, diffing).
func (p *Plan) SiteSet() map[callgraph.SiteID]bool {
	set := make(map[callgraph.SiteID]bool, len(p.ids))
	for _, s := range p.ids {
		set[s] = true
	}
	return set
}

// SiteLabels renders the instrumented sites as sorted labels; used in
// tests and the planner CLI. Labels are built in site order and sorted
// once lexically.
func (p *Plan) SiteLabels(g *callgraph.Graph) []string {
	labels := make([]string, 0, len(p.ids))
	for _, s := range p.ids {
		labels = append(labels, g.SiteLabel(s))
	}
	sort.Strings(labels)
	return labels
}

// NewPlan runs the given planner scheme over the graph. The produced
// Plan is immutable and freely shareable.
func NewPlan(scheme Scheme, g *callgraph.Graph, targets []callgraph.NodeID) (*Plan, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("encoding: no target functions given")
	}
	p := &Plan{
		Scheme:  scheme,
		Targets: append([]callgraph.NodeID(nil), targets...),
		sites:   make([]bool, g.NumEdges()),
	}
	switch scheme {
	case SchemeFCS:
		for s := range p.sites {
			p.sites[s] = true
		}
	case SchemeTCS:
		planTCS(p, g, targets)
	case SchemeSlim:
		planSlim(p, g, targets)
	case SchemeIncremental:
		planIncremental(p, g, targets)
	default:
		return nil, fmt.Errorf("encoding: unknown scheme %v", scheme)
	}
	n := 0
	for _, on := range p.sites {
		if on {
			n++
		}
	}
	if n > 0 {
		p.ids = make([]callgraph.SiteID, 0, n)
		for s, on := range p.sites {
			if on {
				p.ids = append(p.ids, callgraph.SiteID(s))
			}
		}
	}
	return p, nil
}

// planTCS instruments every target-reaching call site (SchemeFCS
// instruments all sites; TCS is the first targeted refinement).
func planTCS(p *Plan, g *callgraph.Graph, targets []callgraph.NodeID) {
	reaches := g.ReachesTargetsInto(nil, bfsQueue(g), targets)
	for s := 0; s < g.NumEdges(); s++ {
		p.sites[s] = reaches[g.Edge(callgraph.SiteID(s)).To]
	}
}

// bfsQueue returns a worklist for ReachesTargetsInto that holds every
// node of g, so a search never grows it.
func bfsQueue(g *callgraph.Graph) []callgraph.NodeID {
	return make([]callgraph.NodeID, 0, g.NumNodes())
}

// planSlim keeps only target-reaching sites whose containing function
// is a branching node: one with two or more target-reaching out-edges
// (Section IV-B). Sites in non-branching nodes cannot affect the
// distinguishability of encodings, because between two instrumented
// sites the path through non-branching nodes is unique.
func planSlim(p *Plan, g *callgraph.Graph, targets []callgraph.NodeID) {
	reaches := g.ReachesTargetsInto(nil, bfsQueue(g), targets)
	count := make([]int32, g.NumNodes())
	for s := 0; s < g.NumEdges(); s++ {
		e := g.Edge(callgraph.SiteID(s))
		if reaches[e.To] {
			count[e.From]++
		}
	}
	for s := 0; s < g.NumEdges(); s++ {
		e := g.Edge(callgraph.SiteID(s))
		p.sites[s] = reaches[e.To] && count[e.From] >= 2
	}
}

// planIncremental implements Algorithm 1 of the paper. Because the
// interception function already knows WHICH target was invoked,
// contexts are distinguished by the pair {TargetFn, CCID}; therefore a
// node needs instrumentation only if it is a *true* branching node for
// some single target t: two or more of its out-edges reach that same t.
// False branching nodes — whose target-reaching edges each lead to a
// different target — are pruned. The per-target passes share one set
// of scratch buffers.
func planIncremental(p *Plan, g *callgraph.Graph, targets []callgraph.NodeID) {
	var (
		reaches []bool
		queue   = bfsQueue(g)
		count   = make([]int32, g.NumNodes())
		one     [1]callgraph.NodeID
	)
	for _, t := range targets {
		// Backward BFS from t (Lines 4-10 of Algorithm 1); the visited
		// check handles back edges.
		one[0] = t
		reaches = g.ReachesTargetsInto(reaches, queue, one[:])
		// For each node, count its out-edges that reach t
		// (Lines 11-17); instrument them if there are two or more.
		clear(count)
		for s := 0; s < g.NumEdges(); s++ {
			if reaches[g.Edge(callgraph.SiteID(s)).To] {
				count[g.Edge(callgraph.SiteID(s)).From]++
			}
		}
		for s := 0; s < g.NumEdges(); s++ {
			e := g.Edge(callgraph.SiteID(s))
			if reaches[e.To] && count[e.From] >= 2 {
				p.sites[s] = true
			}
		}
	}
}
