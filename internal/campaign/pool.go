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
	"heaptherapy/internal/shadow"
	"heaptherapy/internal/telemetry"
)

// Workbench is the pooled oracle: it runs the same differential matrix
// as Oracle.Check, but over recycled substrate. Oracle.Check rebuilds
// every space, allocator, backend, telemetry collector, and executor
// for each of the 20 cells of every seed, so almost all of its memory
// and allocations are construction. The workbench keeps one substrate
// instance per cell class alive across seeds and recycles it through
// the proven Reset contracts (mem.Space's dirty-page reset, the shadow
// backend's plane watermark, the Defender's table re-establishment,
// the allocators' arena resets) — the fleet runtime's pooled-context
// idiom applied to the whole oracle matrix. The program is also
// prepared once per (seed, engine), so every compiled-engine cell
// shares one immutable bytecode.
//
// A Workbench is NOT safe for concurrent use; the sharded campaign
// runtime (shard.go) gives each worker goroutine its own.
//
// TestWorkbenchBitIdentical proves Check's reports byte-identical to
// Oracle.Check's fresh-construction path over a corpus of seeds.
type Workbench struct {
	oracle Oracle

	// Shadow substrate, shared by every shadow cell of a seed and reset
	// between cells.
	shadowSpace *mem.Space
	shadowBack  *shadow.Backend

	// Native substrate, one per allocator kind; defended substrate,
	// one per (allocator kind, policy family) pair — a family's
	// Defender carries family-private state (the bounds index, the
	// blanket quarantine), so benches are never shared across policies.
	native   [2]*nativeBench
	defended map[defendedKey]*defendedBench
}

// defendedKey identifies one defended bench class.
type defendedKey struct {
	alloc  AllocKind
	policy defense.Family
}

// nativeBench is the pooled substrate of one native cell class.
type nativeBench struct {
	space   *mem.Space
	under   heapsim.Allocator
	backend *prog.NativeBackend
}

// defendedBench is the pooled substrate of one defended cell class:
// the space, the telemetry collector whose snapshot joins the cell's
// divergence signature, the defense backend, and (for the pool class)
// the pool allocator beneath it.
type defendedBench struct {
	space *mem.Space
	tcol  *telemetry.Collector
	tel   *telemetry.Scope
	back  *defense.Backend
	under heapsim.Allocator
	pool  *heapsim.PoolAllocator
}

// NewWorkbench builds a pooled oracle for o. Substrate is constructed
// lazily on first use, so a workbench for a trimmed matrix (fewer
// engines or allocators) only ever materializes what it runs.
func NewWorkbench(o Oracle) *Workbench {
	return &Workbench{oracle: o.withDefaults(), defended: map[defendedKey]*defendedBench{}}
}

// Check runs the full matrix for one generated case, producing a
// Report bit-identical to Oracle.Check's but with construction
// amortized across seeds. When the oracle carries an AllocatorFor
// override, the workbench cannot recycle the caller's allocators and
// delegates to Oracle.Check — mutation rigs still work, just unpooled.
func (w *Workbench) Check(g *Generated) *Report {
	o := w.oracle
	if o.AllocatorFor != nil {
		return o.Check(g)
	}
	rep := &Report{Seed: g.Seed, Kind: g.Kind.String()}

	sys, err := core.NewSystem(g.Program, core.Options{MaxSteps: o.MaxSteps})
	if err != nil {
		rep.fail(FailRunError, "", fmt.Sprintf("building system: %v", err))
		return rep
	}
	coder := sys.Coder()

	// One Prepare per (seed, engine), shared by every cell on that
	// engine. A program the system accepted but the compiler rejects is
	// outside the pooled fast path; the fresh oracle reports it cell by
	// cell.
	prepared := make(map[prog.Engine]*prog.Prepared, len(o.Engines))
	for _, e := range o.Engines {
		pp, err := prog.Prepare(g.Program, prog.Config{Coder: coder, MaxSteps: o.MaxSteps, Engine: e})
		if err != nil {
			return o.Check(g)
		}
		prepared[e] = pp
	}

	var attackRep *analysis.Report
	for _, e := range o.Engines {
		for _, attack := range []bool{false, true} {
			out, r := w.runShadowCell(g, coder, prepared[e], e, attack)
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

	for _, alloc := range o.Allocators {
		for _, e := range o.Engines {
			for _, attack := range []bool{false, true} {
				cell := Cell{Mode: ModeNative, Alloc: alloc, Engine: e, Attack: attack}
				rep.Outcomes = append(rep.Outcomes, w.runPooledCell(g, prepared[e], cell, nil))
				if patches != nil {
					cell.Mode = ModeDefended
					for _, pol := range o.Policies {
						cell.Policy = pol
						rep.Outcomes = append(rep.Outcomes, w.runPooledCell(g, prepared[e], cell, patches))
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

// runShadowCell is the pooled counterpart of the shadow-cell body in
// Oracle.Check: same analyzer, same report distillation, but over the
// recycled shadow substrate and the seed's shared Prepared. The error
// strings mirror analysis.Analyze's wrapping so error outcomes stay
// signature-identical too.
func (w *Workbench) runShadowCell(g *Generated, coder *encoding.Coder, pp *prog.Prepared, e prog.Engine, attack bool) (*Outcome, *analysis.Report) {
	o := w.oracle
	out := &Outcome{Cell: Cell{Mode: ModeShadow, Engine: e, Attack: attack}}
	if w.shadowBack == nil {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			out.RunErr = fmt.Sprintf("analysis: creating space: %v", err)
			return out, nil
		}
		back, err := shadow.New(space, shadow.Config{})
		if err != nil {
			out.RunErr = fmt.Sprintf("analysis: creating shadow heap: %v", err)
			return out, nil
		}
		w.shadowSpace, w.shadowBack = space, back
	} else {
		w.shadowSpace.Reset()
		if err := w.shadowBack.Reset(); err != nil {
			out.RunErr = err.Error()
			return out, nil
		}
	}
	ex, err := pp.NewExec(w.shadowBack)
	if err != nil {
		out.RunErr = fmt.Sprintf("analysis: building interpreter: %v", err)
		return out, nil
	}
	az := &analysis.Analyzer{Coder: coder, MaxSteps: o.MaxSteps, Engine: e}
	r, err := az.AnalyzeWith(g.Program, g.input(attack), w.shadowBack, ex)
	if err != nil {
		out.RunErr = err.Error()
		return out, nil
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

// runPooledCell is the pooled counterpart of Oracle.runCell: identical
// cell semantics (walker attachment, panic recovery, stats and
// telemetry capture) over recycled substrate.
func (w *Workbench) runPooledCell(g *Generated, pp *prog.Prepared, cell Cell, patches *patch.Set) *Outcome {
	o := w.oracle
	out := &Outcome{Cell: cell}
	fail := func(err error) *Outcome { out.RunErr = err.Error(); return out }

	var (
		space   *mem.Space
		under   heapsim.Allocator
		backend prog.HeapBackend
		dback   *defense.Backend
		tcol    *telemetry.Collector
	)
	if cell.Mode == ModeDefended {
		db, err := w.defendedFor(cell.Alloc, cell.Policy, patches)
		if err != nil {
			return fail(err)
		}
		space, under, dback, backend, tcol = db.space, db.under, db.back, db.back, db.tcol
	} else {
		nb, err := w.nativeFor(cell.Alloc)
		if err != nil {
			return fail(err)
		}
		space, under, backend = nb.space, nb.under, nb.backend
	}

	ex, err := pp.NewExec(backend)
	if err != nil {
		return fail(err)
	}
	wk := NewWalker(space, under)
	wk.Attach(ex, o.InvariantEvery)

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
	if dback != nil {
		st := dback.Defender().Stats()
		out.DefenseStats = &st
	}
	if tcol != nil {
		out.Telemetry = tcol.Snapshot()
	}
	return out
}

// nativeFor returns the native substrate for alloc, recycled (or
// constructed on first use).
func (w *Workbench) nativeFor(alloc AllocKind) (*nativeBench, error) {
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
	var under heapsim.Allocator
	if alloc == AllocHeap {
		under, err = heapsim.New(space)
	} else {
		under, err = heapsim.NewPool(space)
	}
	if err != nil {
		return nil, err
	}
	backend, err := prog.NewNativeBackendWithAllocator(space, under)
	if err != nil {
		return nil, err
	}
	nb := &nativeBench{space: space, under: under, backend: backend}
	w.native[alloc] = nb
	return nb, nil
}

// defendedFor returns the defended substrate for (alloc, policy) armed
// with this seed's patches. Construction order matches Oracle.runCell:
// on the boundary-tag heap the defender maps its patch table before
// the heap arena, and on the pool the table still maps first because
// the pool carves runs lazily. ResetPatches replays exactly that order
// after every space reset — and runs the policy's own reset hook — so
// pooled addresses and whole-cell signatures stay bit-identical to
// fresh construction even though each seed loads a different patch
// set.
func (w *Workbench) defendedFor(alloc AllocKind, policy defense.Family, patches *patch.Set) (*defendedBench, error) {
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
	db := &defendedBench{space: space, tcol: tcol, tel: tel}
	if alloc == AllocHeap {
		back, err := defense.NewBackend(space, defense.Config{Patches: patches, Family: policy, Telemetry: tel})
		if err != nil {
			return nil, err
		}
		db.back, db.under = back, back.Defender().Heap()
	} else {
		pool, err := heapsim.NewPool(space)
		if err != nil {
			return nil, err
		}
		pool.SetTelemetry(tel)
		back, err := defense.NewBackendWithAllocator(space, pool, defense.Config{Patches: patches, Family: policy, Telemetry: tel})
		if err != nil {
			return nil, err
		}
		db.back, db.under, db.pool = back, pool, pool
	}
	w.defended[key] = db
	return db, nil
}
