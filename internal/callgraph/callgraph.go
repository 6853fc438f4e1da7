// Package callgraph models program call graphs: nodes are functions and
// every edge is one call site (two distinct calls from A to B are two
// edges). The targeted calling-context encoding algorithms of the paper
// (Section IV) are reachability and branching analyses over this graph,
// implemented in package encoding.
package callgraph

import (
	"fmt"
	"strings"
)

// NodeID identifies a function in a Graph.
type NodeID int

// SiteID identifies a call site (an edge) in a Graph.
type SiteID int

// InvalidNode is returned by lookups that fail.
const InvalidNode NodeID = -1

// Edge is a call site: a single static call from one function to
// another.
type Edge struct {
	// ID is the site identifier, unique within the graph.
	ID SiteID
	// From is the calling function.
	From NodeID
	// To is the callee.
	To NodeID
}

// Graph is an immutable call graph. Build one with a Builder.
type Graph struct {
	names  []string
	byName map[string]NodeID
	edges  []Edge
	out    [][]SiteID
	in     [][]SiteID
}

// Builder accumulates functions and call sites for a Graph.
type Builder struct {
	g Graph
}

// NewBuilder returns an empty call graph builder.
func NewBuilder() *Builder {
	return &Builder{g: Graph{byName: make(map[string]NodeID)}}
}

// AddFunc adds a function (idempotently) and returns its node.
func (b *Builder) AddFunc(name string) NodeID {
	if id, ok := b.g.byName[name]; ok {
		return id
	}
	id := NodeID(len(b.g.names))
	b.g.names = append(b.g.names, name)
	b.g.byName[name] = id
	b.g.out = append(b.g.out, nil)
	b.g.in = append(b.g.in, nil)
	return id
}

// AddCall adds a call site from caller to callee, adding the functions
// as needed, and returns the new site's ID.
func (b *Builder) AddCall(caller, callee string) SiteID {
	from := b.AddFunc(caller)
	to := b.AddFunc(callee)
	id := SiteID(len(b.g.edges))
	b.g.edges = append(b.g.edges, Edge{ID: id, From: from, To: to})
	b.g.out[from] = append(b.g.out[from], id)
	b.g.in[to] = append(b.g.in[to], id)
	return id
}

// Build finalizes and returns the graph. The builder must not be used
// afterwards.
func (b *Builder) Build() *Graph {
	g := b.g
	b.g = Graph{}
	return &g
}

// NumNodes returns the number of functions.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumEdges returns the number of call sites.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Name returns the function name for a node.
func (g *Graph) Name(n NodeID) string { return g.names[n] }

// NodeByName looks a function up by name, returning InvalidNode if
// absent.
func (g *Graph) NodeByName(name string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	return InvalidNode
}

// Edge returns the edge for a site ID.
func (g *Graph) Edge(s SiteID) Edge { return g.edges[s] }

// OutSites returns the call sites contained in function n.
func (g *Graph) OutSites(n NodeID) []SiteID { return g.out[n] }

// InSites returns the call sites whose callee is n.
func (g *Graph) InSites(n NodeID) []SiteID { return g.in[n] }

// SiteLabel renders a human-readable "caller->callee#k" label, where k
// disambiguates multiple sites between the same pair.
func (g *Graph) SiteLabel(s SiteID) string {
	e := g.edges[s]
	k := 0
	for _, o := range g.out[e.From] {
		if o == s {
			break
		}
		if g.edges[o].To == e.To {
			k++
		}
	}
	return fmt.Sprintf("%s->%s#%d", g.names[e.From], g.names[e.To], k)
}

// ReachesTargets computes, for every node, whether some call path from
// it reaches any node in targets. Targets trivially reach themselves.
// The analysis is a backward breadth-first search over incoming edges
// and handles cycles (Section IV-A of the paper).
func (g *Graph) ReachesTargets(targets []NodeID) []bool {
	return g.ReachesTargetsInto(nil, nil, targets)
}

// ReachesTargetsInto is ReachesTargets with caller-provided scratch:
// reaches is reused as the result slice and queue as the BFS worklist
// when their capacity suffices (their contents need not be zeroed).
// It returns the result slice, which aliases reaches when it fit.
// Planners call this in a loop per target, so reusing both buffers
// makes repeated reachability queries allocation-free.
func (g *Graph) ReachesTargetsInto(reaches []bool, queue []NodeID, targets []NodeID) []bool {
	if cap(reaches) >= len(g.names) {
		reaches = reaches[:len(g.names)]
		for i := range reaches {
			reaches[i] = false
		}
	} else {
		reaches = make([]bool, len(g.names))
	}
	if queue == nil {
		queue = make([]NodeID, 0, len(targets))
	} else {
		queue = queue[:0]
	}
	for _, t := range targets {
		if !reaches[t] {
			reaches[t] = true
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, s := range g.in[n] {
			m := g.edges[s].From
			if !reaches[m] {
				reaches[m] = true
				queue = append(queue, m)
			}
		}
	}
	return reaches
}

// Roots returns nodes with no incoming edges, in ID order.
func (g *Graph) Roots() []NodeID {
	var roots []NodeID
	for n := range g.names {
		if len(g.in[n]) == 0 {
			roots = append(roots, NodeID(n))
		}
	}
	return roots
}

// EnumerateContexts returns every acyclic call path from any root to
// any target, as slices of site IDs, capped at limit paths (0 = no
// cap). Paths are used by encoding tests to verify distinguishability.
func (g *Graph) EnumerateContexts(targets []NodeID, limit int) [][]SiteID {
	isTarget := make([]bool, len(g.names))
	for _, t := range targets {
		isTarget[t] = true
	}
	var out [][]SiteID
	onPath := make([]bool, len(g.names))
	var path []SiteID

	var dfs func(n NodeID) bool
	dfs = func(n NodeID) bool {
		if isTarget[n] {
			cp := make([]SiteID, len(path))
			copy(cp, path)
			out = append(out, cp)
			if limit > 0 && len(out) >= limit {
				return false
			}
			// A target may also call onward; the paper's contexts end at
			// the target invocation, so stop here.
			return true
		}
		onPath[n] = true
		defer func() { onPath[n] = false }()
		for _, s := range g.out[n] {
			to := g.edges[s].To
			if onPath[to] {
				continue // skip back edges: contexts are acyclic
			}
			path = append(path, s)
			ok := dfs(to)
			path = path[:len(path)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	for _, r := range g.Roots() {
		if !dfs(r) {
			break
		}
	}
	return out
}

// DOT renders the graph in Graphviz format, marking targets and
// highlighting instrumented sites if a non-nil set is given.
func (g *Graph) DOT(targets []NodeID, instrumented map[SiteID]bool) string {
	isTarget := make(map[NodeID]bool, len(targets))
	for _, t := range targets {
		isTarget[t] = true
	}
	var sb strings.Builder
	sb.WriteString("digraph callgraph {\n")
	for n, name := range g.names {
		attrs := ""
		if isTarget[NodeID(n)] {
			attrs = " [shape=doublecircle,style=filled,fillcolor=lightblue]"
		}
		fmt.Fprintf(&sb, "  %q%s;\n", name, attrs)
	}
	for _, e := range g.edges {
		attrs := ""
		if instrumented != nil && instrumented[e.ID] {
			attrs = " [color=red,penwidth=2]"
		}
		fmt.Fprintf(&sb, "  %q -> %q%s;\n", g.names[e.From], g.names[e.To], attrs)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Figure2 builds the example graph from Figure 2 of the paper: targets
// T1 and T2; A and C are (true) branching nodes; B and E are
// non-branching; F is a false branching node (its two edges reach
// different targets); D, H, I form a component that cannot reach any
// target. The expected instrumentation sets are locked in by tests in
// package encoding:
//
//	FCS:         every site
//	TCS:         A->B, A->C, B->T1, C->E, C->F, E->T2, F->T1, F->T2
//	Slim:        A->B, A->C, C->E, C->F, F->T1, F->T2
//	Incremental: A->B, A->C, C->E, C->F
func Figure2() (*Graph, []NodeID) {
	b := NewBuilder()
	b.AddCall("A", "B")
	b.AddCall("A", "C")
	b.AddCall("B", "T1")
	b.AddCall("C", "E")
	b.AddCall("C", "F")
	b.AddCall("E", "T2")
	b.AddCall("F", "T1")
	b.AddCall("F", "T2")
	b.AddCall("D", "H")
	b.AddCall("H", "I")
	g := b.Build()
	return g, []NodeID{g.NodeByName("T1"), g.NodeByName("T2")}
}
