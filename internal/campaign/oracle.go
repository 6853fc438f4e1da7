package campaign

import (
	"bytes"
	"fmt"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/core"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
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

// Outcome is everything observable about one cell's run.
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
	// the snapshot is deterministic and participates in the engine
	// divergence signature.
	Telemetry *telemetry.Snapshot `json:",omitempty"`
}

// signature folds every cross-engine-comparable observable into one
// string: two engines run on the same cell coordinates must match it
// byte for byte.
func (o *Outcome) signature() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "err=%q panic=%q inv=%q checks=%d", o.RunErr, o.Panic, o.Invariant, o.Checks)
	if o.Result != nil {
		r := o.Result
		fault := ""
		if r.Fault != nil {
			fault = r.Fault.Error()
		}
		fmt.Fprintf(&b, " out=%x fault=%q steps=%d cycles=%d interp=%d enc=%d allocs=%d frees=%d byfn=%v",
			r.Output, fault, r.Steps, r.Cycles, r.InterpCycles, r.EncUpdates, r.Allocs, r.Frees, r.AllocsByFn)
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
	// MaxSteps bounds each run (default 1<<20 — generated programs
	// finish in a few thousand steps, so exhaustion is itself a bug).
	MaxSteps uint64
	// InvariantEvery is the walker's audit period in interpreter
	// steps (default 128).
	InvariantEvery uint64
	// AllocatorFor overrides allocator construction for native and
	// defended cells (nil = heapsim.New / heapsim.NewPool). The
	// mutation tests use this seam to slide a deliberately broken
	// allocator under the matrix and prove the rig catches it.
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
	if o.MaxSteps == 0 {
		o.MaxSteps = 1 << 20
	}
	if o.InvariantEvery == 0 {
		o.InvariantEvery = 128
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
func (o Oracle) Check(g *Generated) *Report {
	o = o.withDefaults()
	rep := &Report{Seed: g.Seed, Kind: g.Kind.String()}

	sys, err := core.NewSystem(g.Program, core.Options{MaxSteps: o.MaxSteps})
	if err != nil {
		rep.fail(FailRunError, "", fmt.Sprintf("building system: %v", err))
		return rep
	}
	coder := sys.Coder()

	// Shadow analysis cells. The first engine's attack report is kept
	// in typed form for the ground-truth assertions; every engine's
	// rendering lands in Outcomes for the divergence check.
	var attackRep *analysis.Report
	for _, e := range o.Engines {
		for _, attack := range []bool{false, true} {
			cell := Cell{Mode: ModeShadow, Engine: e, Attack: attack}
			az := &analysis.Analyzer{Coder: coder, MaxSteps: o.MaxSteps, Engine: e}
			out := &Outcome{Cell: cell}
			r, err := az.Analyze(g.Program, g.input(attack))
			if err != nil {
				out.RunErr = err.Error()
			} else {
				out.Result = r.Result
				for _, w := range r.Warnings {
					out.Warnings = append(out.Warnings, w.String())
				}
				var buf bytes.Buffer
				if err := r.Patches.WriteConfig(&buf); err != nil {
					out.RunErr = err.Error()
				}
				out.PatchText = buf.String()
				if attack && attackRep == nil {
					attackRep = r
				}
			}
			rep.Outcomes = append(rep.Outcomes, out)
		}
	}

	var patches *patch.Set
	if attackRep != nil {
		patches = attackRep.Patches
	}

	// Native and defended cells; the defended plane fans out across
	// every requested policy family.
	for _, alloc := range o.Allocators {
		for _, e := range o.Engines {
			for _, attack := range []bool{false, true} {
				cell := Cell{Mode: ModeNative, Alloc: alloc, Engine: e, Attack: attack}
				rep.Outcomes = append(rep.Outcomes, o.runCell(g, coder, cell, nil))
				if patches != nil {
					cell.Mode = ModeDefended
					for _, pol := range o.Policies {
						cell.Policy = pol
						rep.Outcomes = append(rep.Outcomes, o.runCell(g, coder, cell, patches))
					}
				}
			}
		}
	}

	o.assertEngines(rep)
	o.assertBenign(rep)
	o.assertShadow(rep, g, attackRep)
	o.assertNativeAttack(rep, g)
	o.assertDefendedAttack(rep, g)
	return rep
}

// input selects the benign or attack input.
func (g *Generated) input(attack bool) []byte {
	if attack {
		return g.Attack
	}
	return g.Benign
}

// runCell executes one native or defended cell over a fresh space,
// with the invariant walker attached as the quantum hook.
func (o Oracle) runCell(g *Generated, coder *encoding.Coder, cell Cell, patches *patch.Set) *Outcome {
	out := &Outcome{Cell: cell}
	fail := func(err error) *Outcome { out.RunErr = err.Error(); return out }

	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return fail(err)
	}
	// Defended cells run fully telemetered: the snapshot lands in the
	// Outcome (and hence the engine-divergence signature) and lets the
	// harness assert that a planted vulnerability's patch actually fired.
	// The quantum hook stays with the invariant walker, so quantum
	// timing is deliberately absent here.
	var tcol *telemetry.Collector
	var tel *telemetry.Scope
	if cell.Mode == ModeDefended {
		tcol = telemetry.New(telemetry.Config{Shards: 1, RingSize: 256})
		tel = tcol.Scope()
		space.SetTelemetry(tel)
	}
	// Construction order matters on the boundary-tag heap: its arena
	// must stay the space's only growing segment, so the defender (which
	// maps its patch table first, like a library constructor running
	// before any application allocation) must come before heapsim.New.
	// The pool allocator carves runs lazily and has no such constraint.
	// AllocatorFor factories must likewise defer any arena
	// establishment to first use when the defended cells are enabled.
	var under heapsim.Allocator
	var backend prog.HeapBackend
	var dback *defense.Backend
	if cell.Mode == ModeDefended && cell.Alloc == AllocHeap && o.AllocatorFor == nil {
		dback, err = defense.NewBackend(space, defense.Config{Patches: patches, Family: cell.Policy, Telemetry: tel})
		if err != nil {
			return fail(err)
		}
		backend, under = dback, dback.Defender().Heap()
	} else {
		switch {
		case o.AllocatorFor != nil:
			under, err = o.AllocatorFor(cell.Alloc, space)
		case cell.Alloc == AllocHeap:
			under, err = heapsim.New(space)
		default:
			under, err = heapsim.NewPool(space)
		}
		if err != nil {
			return fail(err)
		}
		if cell.Mode == ModeDefended {
			switch a := under.(type) {
			case *heapsim.Heap:
				a.SetTelemetry(tel)
			case *heapsim.PoolAllocator:
				a.SetTelemetry(tel)
			}
			dback, err = defense.NewBackendWithAllocator(space, under, defense.Config{Patches: patches, Family: cell.Policy, Telemetry: tel})
			backend = dback
		} else {
			backend, err = prog.NewNativeBackendWithAllocator(space, under)
		}
		if err != nil {
			return fail(err)
		}
	}
	ex, err := prog.NewExec(g.Program, prog.Config{
		Backend:  backend,
		Coder:    coder,
		MaxSteps: o.MaxSteps,
		Engine:   cell.Engine,
	})
	if err != nil {
		return fail(err)
	}
	w := NewWalker(space, under)
	w.Attach(ex, o.InvariantEvery)

	func() {
		defer func() {
			if r := recover(); r != nil {
				out.Panic = fmt.Sprint(r)
			}
		}()
		res, err := ex.Run(g.input(cell.Attack))
		if err != nil {
			out.RunErr = err.Error()
			return
		}
		out.Result = res
	}()

	w.Check() // final audit after the run settles
	if v := w.Violation(); v != nil {
		out.Invariant = v.Error()
	}
	out.Checks = w.Checks()
	if dback != nil {
		st := dback.Defender().Stats()
		out.DefenseStats = &st
	}
	if tcol != nil {
		out.Telemetry = tcol.Snapshot()
	}
	return out
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
		} else if prev.signature() != out.signature() {
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

// familyContains maps a campaign kind onto the family's documented
// Containment matrix.
func familyContains(f defense.Family, k VulnKind) bool {
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
		if out.Cell.Attack && !familyContains(out.Cell.Policy, g.Kind) {
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
