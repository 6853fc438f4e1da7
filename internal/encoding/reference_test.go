package encoding

import (
	"fmt"

	"heaptherapy/internal/callgraph"
)

// This file retains the original map-based planner and coder as a
// reference implementation. The production Plan/Coder hold their site
// sets and per-node state densely (plan.go, encoders.go); the
// differential and fuzz tests (dense_equiv_test.go) check that the
// dense representations produce bit-identical site sets, constants,
// CCIDs, and Decode paths against this oracle on randomized graphs —
// the repo's established way of proving an optimized path equivalent
// to its reference.

// refPlan is the map-based instrumentation plan.
type refPlan struct {
	scheme  Scheme
	targets []callgraph.NodeID
	sites   map[callgraph.SiteID]bool
}

func (p *refPlan) instrumented(s callgraph.SiteID) bool { return p.sites[s] }

// newRefPlan runs the given planner scheme with the original map-based
// algorithms.
func newRefPlan(scheme Scheme, g *callgraph.Graph, targets []callgraph.NodeID) (*refPlan, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("encoding: no target functions given")
	}
	p := &refPlan{scheme: scheme, targets: append([]callgraph.NodeID(nil), targets...)}
	switch scheme {
	case SchemeFCS:
		p.sites = refPlanFCS(g)
	case SchemeTCS:
		p.sites = refPlanTCS(g, targets)
	case SchemeSlim:
		p.sites = refPlanSlim(g, targets)
	case SchemeIncremental:
		p.sites = refPlanIncremental(g, targets)
	default:
		return nil, fmt.Errorf("encoding: unknown scheme %v", scheme)
	}
	return p, nil
}

func refPlanFCS(g *callgraph.Graph) map[callgraph.SiteID]bool {
	set := make(map[callgraph.SiteID]bool, g.NumEdges())
	for s := 0; s < g.NumEdges(); s++ {
		set[callgraph.SiteID(s)] = true
	}
	return set
}

// refPlanTCS returns the call sites (m, n) where n can reach a target
// (or is one).
func refPlanTCS(g *callgraph.Graph, targets []callgraph.NodeID) map[callgraph.SiteID]bool {
	reaches := g.ReachesTargets(targets)
	set := make(map[callgraph.SiteID]bool)
	for s := 0; s < g.NumEdges(); s++ {
		if reaches[g.Edge(callgraph.SiteID(s)).To] {
			set[callgraph.SiteID(s)] = true
		}
	}
	return set
}

func refPlanSlim(g *callgraph.Graph, targets []callgraph.NodeID) map[callgraph.SiteID]bool {
	tcs := refPlanTCS(g, targets)
	reachingOut := make([]int, g.NumNodes())
	for s := range tcs {
		reachingOut[g.Edge(s).From]++
	}
	set := make(map[callgraph.SiteID]bool)
	for s := range tcs {
		if reachingOut[g.Edge(s).From] >= 2 {
			set[s] = true
		}
	}
	return set
}

func refPlanIncremental(g *callgraph.Graph, targets []callgraph.NodeID) map[callgraph.SiteID]bool {
	set := make(map[callgraph.SiteID]bool)
	for _, t := range targets {
		reaches := g.ReachesTargets([]callgraph.NodeID{t})
		perNode := make(map[callgraph.NodeID][]callgraph.SiteID)
		for s := 0; s < g.NumEdges(); s++ {
			e := g.Edge(callgraph.SiteID(s))
			if reaches[e.To] {
				perNode[e.From] = append(perNode[e.From], e.ID)
			}
		}
		for _, edges := range perNode {
			if len(edges) > 1 {
				for _, s := range edges {
					set[s] = true
				}
			}
		}
	}
	return set
}

// refCoder is the map-based coder: identical arithmetic to Coder, with
// the original map-backed plan and per-node state.
type refCoder struct {
	kind EncoderKind
	g    *callgraph.Graph
	plan *refPlan

	consts []uint64

	numEnc     []uint64
	dagOut     [][]callgraph.SiteID
	reachesTgt map[callgraph.NodeID][]bool
	isTarget   map[callgraph.NodeID]bool
	targetBase map[callgraph.NodeID]uint64
	backEdges  map[callgraph.SiteID]bool
}

// newRefCoder builds the per-site constants for kind under plan, using
// the original map-based numbering.
func newRefCoder(kind EncoderKind, g *callgraph.Graph, plan *refPlan) (*refCoder, error) {
	c := &refCoder{
		kind:   kind,
		g:      g,
		plan:   plan,
		consts: make([]uint64, g.NumEdges()),
	}
	switch kind {
	case EncoderPCC:
		for s := range c.consts {
			c.consts[s] = splitmix64(uint64(s) + 0x9E3779B97F4A7C15)
		}
	case EncoderPCCE, EncoderDeltaPath:
		if err := c.numberAdditive(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("encoding: unknown encoder kind %v", kind)
	}
	return c, nil
}

func (c *refCoder) update(t uint64, s callgraph.SiteID) uint64 {
	if !c.plan.instrumented(s) {
		return t
	}
	if c.kind == EncoderPCC {
		return 3*t + c.consts[s]
	}
	return t + c.consts[s]
}

func (c *refCoder) encodePath(path []callgraph.SiteID) uint64 {
	var v uint64
	for _, s := range path {
		v = c.update(v, s)
	}
	return v
}

func (c *refCoder) traversesBackEdge(path []callgraph.SiteID) bool {
	if c.backEdges == nil {
		return false
	}
	for _, s := range path {
		if c.backEdges[s] {
			return true
		}
	}
	return false
}

func (c *refCoder) numberAdditive() error {
	g := c.g
	reaches := g.ReachesTargets(c.plan.targets)
	c.isTarget = make(map[callgraph.NodeID]bool, len(c.plan.targets))
	for _, t := range c.plan.targets {
		c.isTarget[t] = true
	}

	c.backEdges = c.findBackEdges()

	if c.kind == EncoderDeltaPath {
		c.targetBase = make(map[callgraph.NodeID]uint64, len(c.plan.targets))
		for i, t := range c.plan.targets {
			c.targetBase[t] = uint64(i) << deltaTargetShift
		}
	}

	back := c.backEdges

	n := g.NumNodes()
	c.dagOut = make([][]callgraph.SiteID, n)
	indeg := make([]int, n)
	for s := 0; s < g.NumEdges(); s++ {
		sid := callgraph.SiteID(s)
		e := g.Edge(sid)
		if back[sid] || !reaches[e.To] {
			continue
		}
		if c.isTarget[e.From] {
			continue
		}
		c.dagOut[e.From] = append(c.dagOut[e.From], sid)
		indeg[e.To]++
	}
	topo := make([]callgraph.NodeID, 0, n)
	queue := make([]callgraph.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, callgraph.NodeID(v))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		topo = append(topo, v)
		for _, s := range c.dagOut[v] {
			to := g.Edge(s).To
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(topo) != n {
		return fmt.Errorf("encoding: internal: DAG topological sort visited %d of %d nodes", len(topo), n)
	}

	c.numEnc = make([]uint64, n)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if c.isTarget[v] {
			c.numEnc[v] = 1
			continue
		}
		var acc, maxUninstr uint64
		for _, s := range c.dagOut[v] {
			w := g.Edge(s).To
			sub := c.numEnc[w]
			if c.plan.instrumented(s) {
				c.consts[s] = acc
				if c.kind == EncoderDeltaPath && c.isTarget[w] {
					c.consts[s] += c.targetBase[w]
				}
				acc += sub
			} else if sub > maxUninstr {
				maxUninstr = sub
			}
		}
		c.numEnc[v] = acc
		if maxUninstr > c.numEnc[v] {
			c.numEnc[v] = maxUninstr
		}
	}

	c.reachesTgt = make(map[callgraph.NodeID][]bool, len(c.plan.targets))
	for _, t := range c.plan.targets {
		c.reachesTgt[t] = g.ReachesTargets([]callgraph.NodeID{t})
	}
	return nil
}

func (c *refCoder) findBackEdges() map[callgraph.SiteID]bool {
	g := c.g
	const (
		white = 0
		gray  = 1
	)
	color := make([]byte, g.NumNodes())
	back := make(map[callgraph.SiteID]bool)

	type frame struct {
		node callgraph.NodeID
		next int
	}
	visit := func(root callgraph.NodeID) {
		if color[root] != white {
			return
		}
		stack := []frame{{node: root}}
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := g.OutSites(f.node)
			if f.next >= len(out) {
				color[f.node] = 2 // black
				stack = stack[:len(stack)-1]
				continue
			}
			s := out[f.next]
			f.next++
			to := g.Edge(s).To
			switch color[to] {
			case white:
				color[to] = gray
				stack = append(stack, frame{node: to})
			case gray:
				back[s] = true
			}
		}
	}
	for _, r := range g.Roots() {
		visit(r)
	}
	for v := 0; v < g.NumNodes(); v++ {
		visit(callgraph.NodeID(v))
	}
	return back
}

// decode mirrors Coder.Decode over the map-based state.
func (c *refCoder) decode(root, target callgraph.NodeID, ccid uint64) ([]callgraph.SiteID, error) {
	if c.kind == EncoderPCC {
		return nil, ErrNoDecode
	}
	reach, ok := c.reachesTgt[target]
	if !ok {
		return nil, fmt.Errorf("encoding: %v is not a target function", target)
	}
	if c.kind == EncoderDeltaPath {
		if base := c.targetBase[target]; ccid >= base {
			ccid -= base
		}
	}
	var path []callgraph.SiteID
	cur := root
	remaining := ccid
	for steps := 0; cur != target; steps++ {
		if steps > c.g.NumNodes() {
			return nil, fmt.Errorf("encoding: decode exceeded maximum path length")
		}
		var chosen callgraph.SiteID = -1
		var chosenConst uint64
		candidates := 0
		for _, s := range c.dagOut[cur] {
			w := c.g.Edge(s).To
			if !reach[w] {
				continue
			}
			lo := uint64(0)
			if c.plan.instrumented(s) {
				lo = c.consts[s]
				if c.kind == EncoderDeltaPath && c.isTarget[w] {
					lo -= c.targetBase[w]
				}
			}
			hi := lo + c.numEnc[w]
			if remaining >= lo && remaining < hi {
				candidates++
				chosen = s
				chosenConst = lo
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("encoding: CCID %#x does not decode from %s", ccid, c.g.Name(root))
		}
		if candidates > 1 {
			return nil, fmt.Errorf("encoding: CCID %#x is ambiguous at %s under plan %s", ccid, c.g.Name(cur), c.plan.scheme)
		}
		path = append(path, chosen)
		remaining -= chosenConst
		cur = c.g.Edge(chosen).To
	}
	if remaining != 0 {
		return nil, fmt.Errorf("encoding: CCID %#x has residue %d after decoding", ccid, remaining)
	}
	return path, nil
}
