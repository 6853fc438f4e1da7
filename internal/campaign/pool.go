package campaign

import (
	"bytes"
	"errors"
	"fmt"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/core"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/shadow"
	"heaptherapy/internal/telemetry"
)

// Workbench runs the oracle's differential matrix; it is the only
// matrix driver. A pooled workbench keeps one substrate instance per
// cell class alive across seeds and recycles it through the proven
// Reset contracts (mem.Space's dirty-page reset, the shadow backend's
// plane watermark, the Defender's table re-establishment, the
// allocators' arena resets), where fresh construction (Oracle.Check)
// spends almost all of its memory and allocations building substrate
// for each of a seed's 20 cells. In both modes the program is prepared
// once per (seed, engine), so every compiled-engine cell shares one
// immutable bytecode.
//
// A Workbench is NOT safe for concurrent use; the sharded campaign
// runtime (shard.go) gives each worker goroutine its own.
// TestWorkbenchBitIdentical proves a pooled workbench's reports
// byte-identical to Oracle.Check's over a corpus of seeds.
type Workbench struct {
	oracle Oracle
	// fresh builds new substrate for every cell and caches none of it.
	// Oracle.Check sets it, and NewWorkbench sets it whenever the
	// oracle carries an AllocatorFor override: the workbench cannot
	// reset an allocator the caller built.
	fresh bool

	// Shadow substrate, shared by every shadow cell of a seed and reset
	// between cells.
	shadowSpace *mem.Space
	shadowBack  *shadow.Backend

	// Native substrate, one per allocator kind; defended substrate,
	// one per (allocator kind, policy family) pair — a family's
	// Defender carries family-private state (the bounds index, the
	// blanket quarantine), so benches are never shared across policies.
	native   [2]*bench
	defended map[defendedKey]*bench
}

// defendedKey identifies one defended bench class.
type defendedKey struct {
	alloc  AllocKind
	policy defense.Family
}

// bench is the substrate of one native or defended cell class: the
// space, the allocator the walker audits, and the cell's backend.
// Defended benches also carry the telemetry collector whose snapshot
// joins the cell's divergence signature and, over a pool allocator,
// the pool to reset.
type bench struct {
	space   *mem.Space
	under   heapsim.Allocator
	backend *prog.NativeBackend // native cells
	back    *defense.Backend    // defended cells
	tcol    *telemetry.Collector
	pool    *heapsim.PoolAllocator
}

// ErrAllocatorOrder reports an Oracle.AllocatorFor factory whose
// allocator mapped pages while it was being built. A defended cell maps
// its patch table after the allocator is built and before the program
// runs, so such an allocator's arena would not be the space's only
// growing segment; the factory must establish its arena on first use.
var ErrAllocatorOrder = errors.New("campaign: Oracle.AllocatorFor allocator mapped pages at construction; it must establish its arena on first use")

// prepared is one engine's prepared program for a seed, or the error
// every cell on that engine then reports as its RunErr.
type prepared struct {
	pp  *prog.Prepared
	err error
}

func (p prepared) newExec(backend prog.HeapBackend) (prog.Exec, error) {
	if p.err != nil {
		return nil, p.err
	}
	return p.pp.NewExec(backend)
}

// NewWorkbench builds a pooled oracle for o (a fresh one when o carries
// an AllocatorFor override). Substrate is constructed lazily on first
// use, so a workbench for a trimmed matrix (fewer engines or
// allocators) only ever materializes what it runs.
func NewWorkbench(o Oracle) *Workbench {
	return &Workbench{oracle: o.withDefaults(), fresh: o.AllocatorFor != nil, defended: map[defendedKey]*bench{}}
}

// Check runs the full matrix for one generated case; Oracle.Check
// documents the matrix and its per-cell expectations.
func (w *Workbench) Check(g *Generated) *Report {
	o := w.oracle
	rep := &Report{Seed: g.Seed, Kind: g.Kind.String()}

	sys, err := core.NewSystem(g.Program, core.Options{MaxSteps: maxSteps})
	if err != nil {
		rep.fail(FailRunError, "", fmt.Sprintf("building system: %v", err))
		return rep
	}
	coder := sys.Coder()

	// One Prepare per (seed, engine), shared by every cell on that engine.
	preps := make(map[prog.Engine]prepared, len(o.Engines))
	for _, e := range o.Engines {
		pp, err := prog.Prepare(g.Program, prog.Config{Coder: coder, MaxSteps: maxSteps, Engine: e})
		preps[e] = prepared{pp: pp, err: err}
	}

	// Shadow analysis cells. The first engine's attack report is kept
	// in typed form for the ground-truth assertions; every engine's
	// rendering lands in Outcomes for the divergence check.
	var attackRep *analysis.Report
	for _, e := range o.Engines {
		for _, attack := range []bool{false, true} {
			out, r := w.runShadowCell(g, coder, preps[e], e, attack)
			if attack && attackRep == nil && r != nil {
				attackRep = r
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
				out, _ := w.runCell(g, preps[e], cell, nil) // a setup error is already out.RunErr
				rep.Outcomes = append(rep.Outcomes, out)
				if patches != nil {
					cell.Mode = ModeDefended
					for _, pol := range o.Policies {
						cell.Policy = pol
						out, err := w.runCell(g, preps[e], cell, patches)
						if errors.Is(err, ErrAllocatorOrder) {
							// The oracle's input is at fault, not the
							// defense: one setup failure, no verdicts.
							rep.fail(FailRunError, cell.String(), fmt.Sprintf("building substrate: %v", err))
							return rep
						}
						rep.Outcomes = append(rep.Outcomes, out)
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

// runShadowCell replays one input under the shadow analysis and
// distills the report into the cell's outcome. The error strings match
// analysis.Analyze's wrapping, so error outcomes are signature-identical
// to the analyzer's own construction path.
func (w *Workbench) runShadowCell(g *Generated, coder *encoding.Coder, prep prepared, e prog.Engine, attack bool) (*Outcome, *analysis.Report) {
	out := &Outcome{Cell: Cell{Mode: ModeShadow, Engine: e, Attack: attack}}
	fail := func(err error) (*Outcome, *analysis.Report) { out.RunErr = err.Error(); return out, nil }
	back, err := w.shadowFor()
	if err != nil {
		return fail(err)
	}
	ex, err := prep.newExec(back)
	if err != nil {
		return fail(fmt.Errorf("analysis: building interpreter: %w", err))
	}
	az := &analysis.Analyzer{Coder: coder, MaxSteps: maxSteps, Engine: e}
	r, err := az.AnalyzeWith(g.Program, g.input(attack), back, ex)
	if err != nil {
		return fail(err)
	}
	out.Result = r.Result
	for _, warn := range r.Warnings {
		out.Warnings = append(out.Warnings, warn.String())
	}
	var buf bytes.Buffer
	if err := r.Patches.WriteConfig(&buf); err != nil {
		out.RunErr = err.Error()
	}
	out.PatchText = buf.String()
	return out, r
}

// runCell executes one native or defended cell, with the invariant
// walker attached as the quantum hook. A substrate construction error
// is also returned, so Check can tell a bad AllocatorFor factory from
// a cell that failed.
func (w *Workbench) runCell(g *Generated, prep prepared, cell Cell, patches *patch.Set) (*Outcome, error) {
	out := &Outcome{Cell: cell}

	var b *bench
	var err error
	if cell.Mode == ModeDefended {
		b, err = w.defendedFor(cell.Alloc, cell.Policy, patches)
	} else {
		b, err = w.nativeFor(cell.Alloc)
	}
	if err != nil {
		out.RunErr = err.Error()
		return out, err
	}
	var backend prog.HeapBackend = b.backend
	if b.back != nil {
		backend = b.back
	}
	ex, err := prep.newExec(backend)
	if err != nil {
		out.RunErr = err.Error()
		return out, nil
	}
	wk := NewWalker(b.space, b.under)
	wk.Attach(ex, invariantEvery)

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

	wk.Check() // final audit after the run settles
	if v := wk.Violation(); v != nil {
		out.Invariant = v.Error()
	}
	out.Checks = wk.Checks()
	if b.back != nil {
		st := b.back.Defender().Stats()
		out.DefenseStats = &st
		out.Telemetry = b.tcol.Snapshot()
	}
	return out, nil
}

// shadowFor returns the shadow backend for the next shadow cell:
// recycled, or constructed on first use and in fresh mode.
func (w *Workbench) shadowFor() (*shadow.Backend, error) {
	if w.shadowBack != nil {
		w.shadowSpace.Reset()
		if err := w.shadowBack.Reset(); err != nil {
			return nil, err
		}
		return w.shadowBack, nil
	}
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, fmt.Errorf("analysis: creating space: %w", err)
	}
	back, err := shadow.New(space, shadow.Config{})
	if err != nil {
		return nil, fmt.Errorf("analysis: creating shadow heap: %w", err)
	}
	if !w.fresh {
		w.shadowSpace, w.shadowBack = space, back
	}
	return back, nil
}

// allocator builds the allocator of one native or defended cell: the
// oracle's AllocatorFor override when set, else the kind's heapsim
// allocator.
func (w *Workbench) allocator(kind AllocKind, space *mem.Space) (heapsim.Allocator, error) {
	switch {
	case w.oracle.AllocatorFor != nil:
		return w.oracle.AllocatorFor(kind, space)
	case kind == AllocHeap:
		return heapsim.New(space)
	default:
		return heapsim.NewPool(space)
	}
}

// nativeFor returns the native substrate for alloc: recycled, or
// constructed on first use and in fresh mode.
func (w *Workbench) nativeFor(alloc AllocKind) (*bench, error) {
	if nb := w.native[alloc]; nb != nil {
		nb.space.Reset()
		if err := nb.backend.Reset(); err != nil {
			return nil, err
		}
		return nb, nil
	}
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, err
	}
	under, err := w.allocator(alloc, space)
	if err != nil {
		return nil, err
	}
	backend, err := prog.NewNativeBackendWithAllocator(space, under)
	if err != nil {
		return nil, err
	}
	nb := &bench{space: space, under: under, backend: backend}
	if !w.fresh {
		w.native[alloc] = nb
	}
	return nb, nil
}

// defendedFor returns the defended substrate for (alloc, policy) armed
// with this seed's patches: recycled, or constructed on first use and
// in fresh mode.
//
// Construction order matters on the boundary-tag heap: its arena must
// stay the space's only growing segment, so the defender (which maps
// its patch table first, like a library constructor running before any
// application allocation) must come before heapsim.New. The pool
// carves runs lazily and has no such constraint, and AllocatorFor
// factories must likewise defer any arena establishment to first use:
// a factory call that moves the space's break is ErrAllocatorOrder.
// ResetPatches replays exactly that order after every space reset —
// and runs the policy's own reset hook — so recycled addresses and
// whole-cell signatures stay bit-identical to fresh construction even
// though each seed loads a different patch set.
func (w *Workbench) defendedFor(alloc AllocKind, policy defense.Family, patches *patch.Set) (*bench, error) {
	key := defendedKey{alloc: alloc, policy: policy}
	if db := w.defended[key]; db != nil {
		db.space.Reset()
		db.tcol.Reset()
		if err := db.back.ResetPatches(patches); err != nil {
			return nil, err
		}
		if db.pool != nil {
			db.pool.Reset()
		}
		return db, nil
	}
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, err
	}
	tcol := telemetry.New(telemetry.Config{Shards: 1, RingSize: 256})
	tel := tcol.Scope()
	space.SetTelemetry(tel)
	db := &bench{space: space, tcol: tcol}
	cfg := defense.Config{Patches: patches, Family: policy, Telemetry: tel}
	if alloc == AllocHeap && w.oracle.AllocatorFor == nil {
		db.back, err = defense.NewBackend(space, cfg)
		if err != nil {
			return nil, err
		}
		db.under = db.back.Defender().Heap()
	} else {
		brk := space.End()
		if db.under, err = w.allocator(alloc, space); err != nil {
			return nil, err
		}
		if space.End() != brk {
			return nil, fmt.Errorf("%w (the %v allocator moved the break from %#x to %#x)", ErrAllocatorOrder, alloc, brk, space.End())
		}
		switch a := db.under.(type) {
		case *heapsim.Heap:
			a.SetTelemetry(tel)
		case *heapsim.PoolAllocator:
			a.SetTelemetry(tel)
			db.pool = a
		}
		if db.back, err = defense.NewBackendWithAllocator(space, db.under, cfg); err != nil {
			return nil, err
		}
	}
	if !w.fresh {
		w.defended[key] = db
	}
	return db, nil
}
