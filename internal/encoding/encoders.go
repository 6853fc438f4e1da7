package encoding

import (
	"errors"
	"fmt"
	"strings"

	"heaptherapy/internal/callgraph"
)

// EncoderKind selects the arithmetic used at instrumented call sites.
type EncoderKind uint8

// Encoder kinds.
const (
	// EncoderPCC is probabilistic calling context: V = 3*t + c with a
	// per-site hash constant. No decoding; collisions are possible but
	// astronomically unlikely with 64-bit values.
	EncoderPCC EncoderKind = iota + 1
	// EncoderPCCE is precise calling-context encoding: V = t + c with
	// constants from Ball-Larus path numbering over the instrumented,
	// target-reaching subgraph. Supports decoding.
	EncoderPCCE
	// EncoderDeltaPath is a DeltaPath-style additive encoder: PCCE
	// numbering plus per-target disjoint ID ranges, so the target
	// function is recoverable from the CCID's high bits when the final
	// edge into the target is instrumented.
	EncoderDeltaPath
)

func (k EncoderKind) String() string {
	switch k {
	case EncoderPCC:
		return "PCC"
	case EncoderPCCE:
		return "PCCE"
	case EncoderDeltaPath:
		return "DeltaPath"
	default:
		return fmt.Sprintf("EncoderKind(%d)", uint8(k))
	}
}

// AllEncoders lists the encoder kinds.
func AllEncoders() []EncoderKind {
	return []EncoderKind{EncoderPCC, EncoderPCCE, EncoderDeltaPath}
}

// ParseEncoder parses an encoder name (as printed by String).
func ParseEncoder(s string) (EncoderKind, error) {
	names := make([]string, 0, len(AllEncoders()))
	for _, k := range AllEncoders() {
		if k.String() == s {
			return k, nil
		}
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("encoding: unknown encoder %q (valid: %s)", s, strings.Join(names, ", "))
}

// ErrNoDecode is returned when an encoder cannot decode CCIDs (PCC).
var ErrNoDecode = errors.New("encoding: encoder does not support decoding")

// deltaTargetShift positions the per-target base in DeltaPath CCIDs.
const deltaTargetShift = 48

// Coder binds an encoder kind to a plan over a concrete graph: it holds
// the per-site constants the instrumentation pass would embed in the
// binary, and implements the V-update arithmetic the interpreter
// executes at instrumented sites.
type Coder struct {
	kind EncoderKind
	g    *callgraph.Graph
	plan *Plan

	consts []uint64 // per site; meaningful only for instrumented sites

	// Additive-encoder state for decoding, all held densely (indexed by
	// NodeID or SiteID) so lookups on hot paths are array loads.
	numEnc     []uint64             // contexts encodable from each node
	dagOut     [][]callgraph.SiteID // target-reaching non-back out-edges
	targetIdx  []int32              // node → index in plan.Targets, -1 if not a target
	reachByTgt [][]bool             // per-target node reachability, by target index
	isTarget   []bool               // target set, by node
	targetBase []uint64             // DeltaPath per-target base, by node
	backEdges  []bool               // DFS back edges by site (additive only)
}

// Precise reports whether the encoder guarantees collision-free CCIDs
// for acyclic contexts (additive encoders). PCC is probabilistic: its
// 64-bit hash makes collisions astronomically unlikely but possible, so
// it reports false.
func (c *Coder) Precise() bool { return c.kind != EncoderPCC }

// TraversesBackEdge reports whether a context path crosses a DFS back
// edge. Additive encoders assign back edges constant 0 (mirroring
// PCCE's recursion handling), so such contexts intentionally collapse
// onto their acyclic skeleton and precision is only guaranteed for
// paths that avoid them. For PCC (which carries no back-edge set) this
// always reports false: the hash distinguishes recursive contexts too.
func (c *Coder) TraversesBackEdge(path []callgraph.SiteID) bool {
	if c.backEdges == nil {
		return false
	}
	for _, s := range path {
		if s >= 0 && int(s) < len(c.backEdges) && c.backEdges[s] {
			return true
		}
	}
	return false
}

// NewCoder builds the per-site constants for kind under plan.
func NewCoder(kind EncoderKind, g *callgraph.Graph, plan *Plan) (*Coder, error) {
	c := &Coder{
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

// Kind returns the encoder kind.
func (c *Coder) Kind() EncoderKind { return c.kind }

// Plan returns the bound instrumentation plan.
func (c *Coder) Plan() *Plan { return c.plan }

// Instrumented reports whether site s updates V at runtime.
func (c *Coder) Instrumented(s callgraph.SiteID) bool { return c.plan.Instrumented(s) }

// SiteConst returns the constant embedded at site s.
func (c *Coder) SiteConst(s callgraph.SiteID) uint64 { return c.consts[s] }

// SiteUpdate is the compiled form of one site's V-update: everything a
// code generator needs to emit the update arithmetic without consulting
// the plan or the constant table again. The update is
//
//	V = t + Const        (additive encoders)
//	V = 3*t + Const      (Mul3, i.e. PCC)
//
// for instrumented sites, and the identity otherwise. This is exactly
// the per-site delta an instrumentation pass embeds in the binary, so a
// bytecode compiler can resolve it once at compile time instead of
// paying a plan-set lookup per executed call.
type SiteUpdate struct {
	// Instrumented reports whether the site updates V at all.
	Instrumented bool
	// Mul3 selects the PCC arithmetic V = 3*t + Const; additive
	// encoders use V = t + Const.
	Mul3 bool
	// Const is the per-site constant (meaningful only if Instrumented).
	Const uint64
}

// Apply computes the V update on a prologue value t.
func (u SiteUpdate) Apply(t uint64) uint64 {
	if !u.Instrumented {
		return t
	}
	if u.Mul3 {
		return 3*t + u.Const
	}
	return t + u.Const
}

// CompileSite returns the precomputed update record for site s. It is
// pure per site: the record never changes after the Coder is built, so
// cached copies (bytecode operands, inline caches) stay valid for the
// Coder's lifetime.
func (c *Coder) CompileSite(s callgraph.SiteID) SiteUpdate {
	if !c.plan.Instrumented(s) {
		return SiteUpdate{}
	}
	return SiteUpdate{Instrumented: true, Mul3: c.kind == EncoderPCC, Const: c.consts[s]}
}

// Update computes the V value for a call through site s given the
// caller's prologue value t. For uninstrumented sites V is unchanged.
func (c *Coder) Update(t uint64, s callgraph.SiteID) uint64 {
	if !c.plan.Instrumented(s) {
		return t
	}
	if c.kind == EncoderPCC {
		return 3*t + c.consts[s]
	}
	return t + c.consts[s]
}

// EncodePath folds Update over a call path (a slice of site IDs from
// the root to the target), yielding the CCID observed at the target
// invocation. Thanks to the save/restore discipline this equals the
// runtime V exactly.
func (c *Coder) EncodePath(path []callgraph.SiteID) uint64 {
	var v uint64
	for _, s := range path {
		v = c.Update(v, s)
	}
	return v
}

// numberAdditive computes Ball-Larus-style constants over the
// instrumented, target-reaching subgraph.
//
// Correctness sketch (also exercised by property tests): define
// numEnc(v) as an upper bound on CCID offsets of contexts from v. At a
// node, the planner guarantees that edges sharing a reachable target
// are either all instrumented (branching/true-branching node) or the
// node has exactly one edge reaching that target (pruned). Instrumented
// edges receive cumulative offsets, so same-target paths through
// different edges land in disjoint ranges; pruned edges contribute 0,
// and any two paths diverging there lead to different targets, which
// {TargetFn, CCID} pairs distinguish.
//
// Back edges (recursion) receive constant 0 and are excluded from
// numbering, mirroring PCCE's special handling of recursion: recursive
// contexts collapse onto their acyclic skeleton.
func (c *Coder) numberAdditive() error {
	g := c.g
	reaches := g.ReachesTargets(c.plan.Targets)
	c.isTarget = make([]bool, g.NumNodes())
	c.targetIdx = make([]int32, g.NumNodes())
	for i := range c.targetIdx {
		c.targetIdx[i] = -1
	}
	for i, t := range c.plan.Targets {
		c.isTarget[t] = true
		c.targetIdx[t] = int32(i)
	}

	c.backEdges = c.findBackEdges()

	// DeltaPath: per-target bases occupy disjoint high-bit ranges.
	if c.kind == EncoderDeltaPath {
		c.targetBase = make([]uint64, g.NumNodes())
		for i, t := range c.plan.Targets {
			c.targetBase[t] = uint64(i) << deltaTargetShift
		}
	}

	back := c.backEdges

	// Build the target-reaching DAG adjacency and a reverse topological
	// order over it.
	n := g.NumNodes()
	c.dagOut = make([][]callgraph.SiteID, n)
	indeg := make([]int, n)
	for s := 0; s < g.NumEdges(); s++ {
		sid := callgraph.SiteID(s)
		e := g.Edge(sid)
		if back[sid] || !reaches[e.To] {
			continue
		}
		// Contexts end at the target invocation; edges out of targets
		// are irrelevant to numbering.
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

	// Number in reverse topological order.
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
			if c.plan.Instrumented(s) {
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

	// Per-target reachability, used by Decode to disambiguate pruned
	// edges.
	c.reachByTgt = make([][]bool, len(c.plan.Targets))
	for i, t := range c.plan.Targets {
		c.reachByTgt[i] = g.ReachesTargets([]callgraph.NodeID{t})
	}
	return nil
}

// findBackEdges returns the DFS back edges, densely by SiteID.
func (c *Coder) findBackEdges() []bool {
	g := c.g
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, g.NumNodes())
	back := make([]bool, g.NumEdges())

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
				color[f.node] = black
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

// Decode reconstructs the call path (site IDs) for a CCID observed at
// target, starting from root. Only additive encoders support decoding;
// PCC returns ErrNoDecode, matching the paper's characterization.
func (c *Coder) Decode(root, target callgraph.NodeID, ccid uint64) ([]callgraph.SiteID, error) {
	if c.kind == EncoderPCC {
		return nil, ErrNoDecode
	}
	if target < 0 || int(target) >= len(c.targetIdx) || c.targetIdx[target] < 0 {
		return nil, fmt.Errorf("encoding: %v is not a target function", target)
	}
	reach := c.reachByTgt[c.targetIdx[target]]
	if c.kind == EncoderDeltaPath {
		// Strip the per-target base if the final edge carried it; the
		// base may be absent when that edge is uninstrumented.
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
			if c.plan.Instrumented(s) {
				lo = c.consts[s]
				if c.kind == EncoderDeltaPath && c.isTarget[w] {
					// Interval comparison is on the numbering component.
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
			return nil, fmt.Errorf("encoding: CCID %#x is ambiguous at %s under plan %s", ccid, c.g.Name(cur), c.plan.Scheme)
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

// splitmix64 is the SplitMix64 finalizer, used for PCC site constants.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
