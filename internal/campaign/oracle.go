package campaign

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// AllocKind selects the allocator under the native or defended run.
type AllocKind uint8

const (
	// AllocHeap is the boundary-tag heap (heapsim.Heap).
	AllocHeap AllocKind = iota
	// AllocPool is the size-class pool allocator.
	AllocPool
)

// AllAllocators lists every allocator kind.
func AllAllocators() []AllocKind { return []AllocKind{AllocHeap, AllocPool} }

func (a AllocKind) String() string {
	switch a {
	case AllocHeap:
		return "heap"
	case AllocPool:
		return "pool"
	default:
		return fmt.Sprintf("AllocKind(%d)", uint8(a))
	}
}

// Mode is the defense posture of one matrix cell.
type Mode uint8

const (
	// ModeNative runs undefended over the raw allocator.
	ModeNative Mode = iota
	// ModeShadow runs under the offline shadow-memory analysis.
	ModeShadow
	// ModeDefended runs with the analysis-generated patches loaded.
	ModeDefended
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeShadow:
		return "shadow"
	case ModeDefended:
		return "defended"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Cell identifies one point of the execution matrix.
type Cell struct {
	Mode   Mode
	Alloc  AllocKind
	Engine prog.Engine
	Attack bool
	// Policy is the defense family of a defended cell (zero =
	// defense.FamilyHT, so HT-only matrices are unchanged).
	Policy defense.Family
}

func (c Cell) String() string {
	input := "benign"
	if c.Attack {
		input = "attack"
	}
	if c.Mode == ModeShadow {
		// Shadow analysis brings its own heap; the allocator axis does
		// not apply.
		return fmt.Sprintf("shadow/%v/%s", c.Engine, input)
	}
	s := fmt.Sprintf("%v/%v/%v/%s", c.Mode, c.Alloc, c.Engine, input)
	if c.Policy != defense.FamilyHT {
		// The policy suffix appears only off the default so HT-only
		// cell names (and every test pinned to them) stay stable.
		s += "/" + c.Policy.String()
	}
	return s
}

// Outcome is everything observable about one cell's run. Two engines'
// outcomes at one matrix coordinate must agree on every observable
// signature renders; sameObservables compares them by value.
type Outcome struct {
	Cell   Cell
	Result *prog.Result `json:",omitempty"`
	// RunErr is a non-fault execution error (step exhaustion, setup
	// failure); faults live in Result.Fault.
	RunErr string `json:",omitempty"`
	// Panic is a recovered interpreter/allocator panic (native heap
	// metadata clobbered hard enough to trip the load guards).
	Panic string `json:",omitempty"`
	// Invariant is the first walker violation, if any.
	Invariant string `json:",omitempty"`
	// Checks is how many invariant audits ran during the cell.
	Checks uint64 `json:",omitempty"`
	// DefenseStats is set for defended cells.
	DefenseStats *defense.Stats `json:",omitempty"`
	// Warnings and PatchText are set for shadow cells.
	Warnings  []string `json:",omitempty"`
	PatchText string   `json:",omitempty"`
	// Telemetry is the cell's counter/event snapshot, set for defended
	// cells. The run is single-threaded and virtual-cycle-clocked, so
	// the snapshot is deterministic and joins the engine comparison
	// (sameObservables) like every other field here.
	Telemetry *telemetry.Snapshot `json:",omitempty"`
}

// signature folds every cross-engine-comparable observable into one
// string. It is the failure detail of an engine divergence, rendered
// only once sameObservables has found one: two engines run on the same
// cell coordinates must match it byte for byte.
func (o *Outcome) signature() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "err=%q panic=%q inv=%q checks=%d", o.RunErr, o.Panic, o.Invariant, o.Checks)
	if o.Result != nil {
		r := o.Result
		fmt.Fprintf(&b, " out=%x fault=%q steps=%d cycles=%d interp=%d enc=%d allocs=%d frees=%d byfn=%v",
			r.Output, faultText(r.Fault), r.Steps, r.Cycles, r.InterpCycles, r.EncUpdates, r.Allocs, r.Frees, r.AllocsByFn)
	}
	if o.DefenseStats != nil {
		fmt.Fprintf(&b, " def=%+v", *o.DefenseStats)
	}
	if o.Telemetry != nil {
		b.WriteString(" tel=")
		if err := o.Telemetry.WriteJSON(&b); err != nil {
			fmt.Fprintf(&b, "<%v>", err)
		}
	}
	fmt.Fprintf(&b, " warn=%q patches=%q", o.Warnings, o.PatchText)
	return b.String()
}

// sameObservables reports whether a and b agree on every observable
// signature renders, compared by value so the oracle's per-cell
// engine check formats nothing. It is at least as strict as comparing
// signatures: each field is compared exactly, and where the rendering
// tells a nil map from an empty one (telemetry counters), so does the
// comparison.
func sameObservables(a, b *Outcome) bool {
	if a.RunErr != b.RunErr || a.Panic != b.Panic || a.Invariant != b.Invariant || a.Checks != b.Checks ||
		!sameResult(a.Result, b.Result) ||
		!slices.Equal(a.Warnings, b.Warnings) || a.PatchText != b.PatchText {
		return false
	}
	if (a.DefenseStats == nil) != (b.DefenseStats == nil) ||
		a.DefenseStats != nil && *a.DefenseStats != *b.DefenseStats {
		return false
	}
	return sameSnapshot(a.Telemetry, b.Telemetry)
}

// sameResult compares the Result fields signature renders.
func sameResult(a, b *prog.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(a.Output, b.Output) && faultText(a.Fault) == faultText(b.Fault) &&
		a.Steps == b.Steps && a.Cycles == b.Cycles && a.InterpCycles == b.InterpCycles &&
		a.EncUpdates == b.EncUpdates && a.Allocs == b.Allocs && a.Frees == b.Frees &&
		a.AllocsByFn == b.AllocsByFn
}

func faultText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameSnapshot compares two telemetry snapshots field by field, as
// their JSON rendering would.
func sameSnapshot(a, b *telemetry.Snapshot) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Tenants != b.Tenants || a.EventsTotal != b.EventsTotal || !sameCounters(a.Counters, b.Counters) ||
		len(a.PerShard) != len(b.PerShard) || len(a.Histograms) != len(b.Histograms) ||
		!slices.Equal(a.Events, b.Events) {
		return false
	}
	for i, s := range a.PerShard {
		if s.Shard != b.PerShard[i].Shard || !sameCounters(s.Counters, b.PerShard[i].Counters) {
			return false
		}
	}
	for i, h := range a.Histograms {
		g := b.Histograms[i]
		if h.Name != g.Name || h.Count != g.Count || !slices.Equal(h.Buckets, g.Buckets) {
			return false
		}
	}
	return true
}

// sameCounters compares counter maps; a nil map renders as null, an
// empty one as {}.
func sameCounters(a, b map[string]uint64) bool {
	return (a == nil) == (b == nil) && maps.Equal(a, b)
}

// Failure is one oracle assertion that did not hold.
type Failure struct {
	Seed   uint64
	Kind   string
	Class  string
	Cell   string `json:",omitempty"`
	Detail string
}

// Failure classes.
const (
	FailRunError         = "run-error"
	FailEngineDivergence = "engine-divergence"
	FailBenignCrash      = "benign-crash"
	FailBenignDivergence = "benign-output-divergence"
	FailShadowFalsePos   = "shadow-false-positive"
	FailShadowMiss       = "shadow-miss"
	FailDefenseBreach    = "defense-breach"
	FailDefenseCrash     = "defense-crash"
	FailNativeMiss       = "native-miss"
	FailInvariant        = "invariant"
)

// Report is the oracle's verdict on one generated case.
type Report struct {
	Seed     uint64
	Kind     string
	Outcomes []*Outcome
	Failures []Failure
}

// OK reports whether every assertion held.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (r *Report) fail(class string, cell, detail string) {
	r.Failures = append(r.Failures, Failure{Seed: r.Seed, Kind: r.Kind, Class: class, Cell: cell, Detail: detail})
}

const (
	// maxSteps bounds each run: generated programs finish in a few
	// thousand steps, so exhaustion is itself a bug.
	maxSteps = 1 << 20
	// invariantEvery is the walker's audit period in interpreter steps.
	// The compiled engine leaves its inlined tick only at these
	// boundaries, so the hook costs one audit per period, not a call
	// per statement.
	invariantEvery = 128
)

// Oracle runs a generated case across the execution matrix and checks
// every cell against the injected ground truth.
type Oracle struct {
	// Engines to cross-check (default: all).
	Engines []prog.Engine
	// Allocators to cross-check in native/defended cells (default:
	// all).
	Allocators []AllocKind
	// Policies are the defense families to run the defended cells
	// under (default: FamilyHT only, the paper's matrix). Each policy
	// is asserted against its own Containment matrix: claimed kinds
	// must be contained, documented misses run record-only.
	Policies []defense.Family
	// AllocatorFor overrides allocator construction for native and
	// defended cells (nil = heapsim.New / heapsim.NewPool). It is
	// called once per cell and its allocators are never recycled. Two
	// users rely on it: the mutation tests slide a deliberately broken
	// allocator under the matrix to prove the rig catches it, and
	// benchmark/'s traced audit slides a call-tracing heap under it.
	AllocatorFor func(kind AllocKind, space *mem.Space) (heapsim.Allocator, error)
}

func (o Oracle) withDefaults() Oracle {
	if len(o.Engines) == 0 {
		o.Engines = prog.AllEngines()
	}
	if len(o.Allocators) == 0 {
		o.Allocators = AllAllocators()
	}
	if len(o.Policies) == 0 {
		o.Policies = []defense.Family{defense.FamilyHT}
	}
	return o
}

// Check runs the full matrix for one generated case.
//
// The matrix and its per-cell expectations:
//
//   - shadow × engine × {benign, attack}: benign must be silent (no
//     warnings — the generator's benign path is memory-clean by
//     construction); the attack must produce a warning AND a patch of
//     the injected kind's ground-truth type.
//   - native × alloc × engine × {benign, attack}: benign must be
//     fault-free with invariants intact; the attack must show its
//     teeth on the boundary-tag heap (leak the secret, clobber the
//     sentinel/metadata, or fault) — if it does not, the generator's
//     ground truth is wrong, which is a finding in itself. On the
//     pool the attack runs record-only: pool recycling discipline
//     legitimately defangs reuse-based attacks.
//   - defended × alloc × engine × {benign, attack}: patches from the
//     shadow attack replay are loaded; the secret must never leak, a
//     surviving run must preserve the sentinel, reuse-based attacks
//     must complete without crashing (double free must fault,
//     contained), and heap invariants must hold in every cell.
//
// Within every (mode, alloc, input) coordinate, all engines must be
// bit-identical across outputs, faults, steps, cycles, and counters.
//
// Check builds every cell's substrate anew, sharing only the seed's
// prepared program per engine: it is the fresh-construction reference
// a pooled Workbench must match bit for bit.
func (o Oracle) Check(g *Generated) *Report {
	w := NewWorkbench(o)
	w.fresh = true
	return w.Check(g)
}

// input selects the benign or attack input.
func (g *Generated) input(attack bool) []byte {
	if attack {
		return g.Attack
	}
	return g.Benign
}

// assertEngines checks that every engine produced bit-identical
// observables at the same (mode, alloc, policy, input) coordinate.
func (o Oracle) assertEngines(rep *Report) {
	type key struct {
		mode   Mode
		alloc  AllocKind
		attack bool
		policy defense.Family
	}
	first := map[key]*Outcome{}
	for _, out := range rep.Outcomes {
		k := key{out.Cell.Mode, out.Cell.Alloc, out.Cell.Attack, out.Cell.Policy}
		if prev, ok := first[k]; !ok {
			first[k] = out
		} else if !sameObservables(prev, out) {
			rep.fail(FailEngineDivergence, out.Cell.String(),
				fmt.Sprintf("%v vs %v:\n%s\n%s", prev.Cell.Engine, out.Cell.Engine, prev.signature(), out.signature()))
		}
	}
}

// assertBenign checks that every benign cell is memory-clean and that
// all benign cells agree on output and step count — the benign path is
// the program's specified behavior, so defense posture, allocator,
// and engine must all be invisible to it.
func (o Oracle) assertBenign(rep *Report) {
	var ref *Outcome
	for _, out := range rep.Outcomes {
		if out.Cell.Attack {
			continue
		}
		cell := out.Cell.String()
		if out.RunErr != "" || out.Panic != "" {
			rep.fail(FailBenignCrash, cell, "run did not complete: "+out.RunErr+out.Panic)
			continue
		}
		if out.Result.Fault != nil {
			rep.fail(FailBenignCrash, cell, "fault: "+out.Result.Fault.Error())
			continue
		}
		if out.Invariant != "" {
			rep.fail(FailInvariant, cell, out.Invariant)
		}
		if out.Cell.Mode == ModeShadow && len(out.Warnings) > 0 {
			rep.fail(FailShadowFalsePos, cell, out.Warnings[0])
		}
		if ref == nil {
			ref = out
			continue
		}
		if !bytes.Equal(out.Result.Output, ref.Result.Output) {
			rep.fail(FailBenignDivergence, cell,
				fmt.Sprintf("output %x, want %x (as %s)", out.Result.Output, ref.Result.Output, ref.Cell))
		}
		if out.Result.Steps != ref.Result.Steps {
			rep.fail(FailBenignDivergence, cell,
				fmt.Sprintf("steps %d, want %d (as %s)", out.Result.Steps, ref.Result.Steps, ref.Cell))
		}
	}
}

// assertShadow checks that the attack replay detected the injected
// vulnerability: at least one warning of the ground-truth type, and at
// least one generated patch carrying it.
func (o Oracle) assertShadow(rep *Report, g *Generated, attackRep *analysis.Report) {
	if attackRep == nil {
		rep.fail(FailRunError, "shadow", "attack analysis did not complete")
		return
	}
	want := g.Kind.GroundTruth()
	warned := false
	for _, w := range attackRep.Warnings {
		if w.Type == want {
			warned = true
			break
		}
	}
	if !warned {
		rep.fail(FailShadowMiss, "shadow", fmt.Sprintf("no %v warning among %d", want, len(attackRep.Warnings)))
	}
	patched := false
	for _, p := range attackRep.Patches.Patches() {
		if p.Types.Has(want) {
			patched = true
			break
		}
	}
	if !patched {
		rep.fail(FailShadowMiss, "shadow", fmt.Sprintf("no %v patch among %d", want, attackRep.Patches.Len()))
	}
}

// assertNativeAttack checks the attack has real native consequences on
// the boundary-tag heap (otherwise the injected ground truth is
// vacuous), and that corruption never escapes the one cell where it is
// expected.
func (o Oracle) assertNativeAttack(rep *Report, g *Generated) {
	for _, out := range rep.Outcomes {
		if out.Cell.Mode != ModeNative || !out.Cell.Attack {
			continue
		}
		cell := out.Cell.String()
		// Corruption (walker violations, allocator panics) is legal
		// only where the attack natively smashes metadata: the
		// boundary-tag heap under attack.
		if out.Cell.Alloc != AllocHeap && (out.Invariant != "" || out.Panic != "") {
			rep.fail(FailInvariant, cell, "corruption outside the heap-attack cell: "+out.Invariant+out.Panic)
			continue
		}
		if out.Cell.Alloc != AllocHeap {
			continue // pool attacks run record-only
		}
		crashed := out.Panic != "" || out.RunErr != "" ||
			(out.Result != nil && out.Result.Fault != nil)
		switch {
		case g.Kind.Leaky():
			if !crashed && out.Result != nil && !bytes.Contains(out.Result.Output, g.Secret) {
				rep.fail(FailNativeMiss, cell, "attack leaked no secret and did not crash")
			}
		case g.Kind.Clobbering():
			clobbered := crashed || out.Invariant != "" ||
				(out.Result != nil && !bytes.Contains(out.Result.Output, g.Sentinel))
			if !clobbered {
				rep.fail(FailNativeMiss, cell, "attack left the sentinel intact without crashing")
			}
		case g.Kind == DoubleFree:
			if !crashed && out.Invariant == "" {
				rep.fail(FailNativeMiss, cell, "double free went unnoticed natively")
			}
		}
	}
}

// FamilyContains maps a campaign kind onto the family's documented
// Containment matrix: whether f claims to contain attacks of kind k.
func FamilyContains(f defense.Family, k VulnKind) bool {
	c := f.Containment()
	switch k {
	case OverflowRead:
		return c.OverflowRead
	case OverflowWrite:
		return c.OverflowWrite
	case UnderflowRead:
		return c.UnderflowRead
	case UAFRead:
		return c.UAFRead
	case UAFWrite:
		return c.UAFWrite
	case DoubleFree:
		return c.DoubleFree
	case UninitRead:
		return c.UninitRead
	default:
		return false
	}
}

// assertDefendedAttack checks each policy's effectiveness claims cell
// by cell against its Containment matrix. For HT, note the guard-page
// geometry: the defended overflow's writes land in the page-alignment
// pad between the buffer and the guard, so containment — not a
// guaranteed fault — is the assertion. ShadowBound's bounds check, by
// contrast, promises a fault at the first out-of-bounds byte of every
// spatial attack, so there the assertion is strict.
func (o Oracle) assertDefendedAttack(rep *Report, g *Generated) {
	for _, out := range rep.Outcomes {
		if out.Cell.Mode != ModeDefended {
			continue
		}
		cell := out.Cell.String()
		if out.Cell.Attack && !FamilyContains(out.Cell.Policy, g.Kind) {
			// Documented expected miss (Family.Containment, DESIGN.md
			// §16): the cell runs record-only. Its outcome still joins
			// the report and the engine-divergence signature, but no
			// containment is asserted — the attack may leak, clobber,
			// or corrupt heap state exactly as it would natively.
			continue
		}
		if out.Panic != "" {
			rep.fail(FailDefenseCrash, cell, "panic under defense: "+out.Panic)
			continue
		}
		if out.Invariant != "" {
			rep.fail(FailInvariant, cell, "violation under defense: "+out.Invariant)
		}
		if !out.Cell.Attack {
			continue // benign defended cells are covered by assertBenign
		}
		if out.RunErr != "" {
			rep.fail(FailDefenseCrash, cell, out.RunErr)
			continue
		}
		res := out.Result
		if g.Kind.Leaky() && bytes.Contains(res.Output, g.Secret) {
			rep.fail(FailDefenseBreach, cell, "secret leaked through defended output")
		}
		switch g.Kind {
		case OverflowWrite, UAFWrite:
			if res.Fault == nil && !bytes.Contains(res.Output, g.Sentinel) {
				rep.fail(FailDefenseBreach, cell, "sentinel clobbered under defense")
			}
		case DoubleFree:
			if res.Fault == nil {
				rep.fail(FailDefenseBreach, cell, "double free not contained (no fault)")
			}
		}
		switch out.Cell.Policy {
		case defense.FamilyShadowBound:
			// Spatial attacks must be rejected by the bounds check
			// itself — a deliberate containment fault, not a wild one.
			switch g.Kind {
			case OverflowRead, OverflowWrite, UnderflowRead:
				if res.Fault == nil {
					rep.fail(FailDefenseBreach, cell, "spatial attack passed the bounds check")
				} else if !defense.IsContainmentFault(res.Fault) {
					rep.fail(FailDefenseBreach, cell, "spatial attack faulted wild, not via the bounds check: "+res.Fault.Error())
				}
			}
		default:
			// HT and MESH survive temporal kinds without terminating:
			// deferred free (or blanket quarantine) and zero-fill
			// neutralize them.
			switch g.Kind {
			case UAFRead, UAFWrite, UninitRead:
				if res.Fault != nil {
					rep.fail(FailDefenseCrash, cell, "defense faulted on a survivable attack: "+res.Fault.Error())
				}
			}
		}
	}
}
