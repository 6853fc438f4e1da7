package prog

// The compiled engine (EngineCompiled, the default). A Machine starts
// every function on a cold tier that interprets the flat bytecode
// compile produces and keeps a heat count per function: one per
// invocation plus one per statement the cold tier runs in the
// function's own body (callees count for themselves). The first
// invocation that finds a function's heat at the tier-up threshold
// lowers that function's instruction range into a chain of Go
// closures (threaded code) built once and cached. Counting statements
// rather than calls promotes where the time goes: a one-shot run
// whose work sits in a single long activation compiles little, while
// a handler re-entered on every request of a reused Machine still
// promotes. The closure code bakes in everything that is static at
// closure-compile time:
//
//   - operand kinds: register indexes and interned constants are
//     resolved to direct accessors, so the per-instruction operand
//     decode (sign check + constant-pool indirection) disappears;
//   - encoding.SiteUpdate deltas: each instrumented call/alloc site's
//     V-update becomes plain integer arithmetic (V = 3*t + c or
//     V = t + c), exactly the instruction an instrumentation pass
//     would embed in a real binary;
//   - backend shape: CheckUse elision (UseObserver), the bulk-load
//     path (BulkLoader), and patch-verdict probing (PatchProber) are
//     decided once per backend shape instead of per instruction;
//   - superinstructions: the pairs compile marked for fusion (a
//     compare feeding a conditional branch, a binary op feeding the
//     loop-latch jump, chained binary ops) become single closures.
//
// The cold tier is quickened along the same lines without leaving its
// switch: clean scalars flow unboxed through vmState.scalarOf and
// reg.setU, and a marked compare+branch or latch pair whose operands
// are clean scalars runs in one dispatch. Anything else (shadow
// planes, undefined operands, a CheckUse that must see a Value) takes
// the boxed rd/setBin path, instruction by instruction.
//
// The step calling convention is deliberately thin: a step returns
// only the next step index. Faults are rare, so instead of returning
// an error interface pair from every step, a step that faults stages
// the error in Machine.trap and returns the stepFault sentinel; the
// driver unwraps it off the hot path.
//
// Both tiers share one vmState (vm.go): registers, frames, and the
// generation-revalidated patch-verdict inline caches (noteAlloc /
// siteIC / SiteProfile operate on the same per-machine cache slots).
//
// Everything observable through Run is bit-identical to the
// tree-walker — outputs, return values, faults, error text and order,
// statistics, and cycle accounting — regardless of when (or whether)
// promotion happens; the differential suites enforce it by running
// never-promoting and immediately-promoting Machines against the
// tree. Closure code never captures the executing Machine, only
// immutable bytecode, so one closureCache is shared by any number of
// Machines (fleet workers, interpreter threads) with the cache lock
// taken only at promotion time, never on the execution hot path.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// DefaultTierUp is the default promotion threshold: the heat —
// cold invocations plus cold statements of the function's own body —
// a function reaches on the bytecode tier before its next invocation
// runs compiled closures. Threshold 1 promotes on the second call;
// a threshold no run reaches (1<<40) never promotes.
const DefaultTierUp = 1 << 16

// closStep is one compiled step. It executes and returns the index of
// the next step within the function, stepReturn when the function
// returns (the return value staged in Machine.retv), or stepFault
// when execution must abort (the error staged in Machine.trap).
type closStep = func(m *Machine, f *frameV) int32

// stepReturn is the "function returned" sentinel next-index;
// stepFault aborts the activation with the error in Machine.trap.
const (
	stepReturn int32 = -1
	stepFault  int32 = -2
)

// closShape is the backend specialization key: closure code compiled
// for one shape elides/bakes different backend interactions, so a
// cache keeps one compiled body per (function, shape).
type closShape struct {
	checkUse bool
	bulk     bool
	prober   bool
}

// closureCache shares closure-compiled function bodies across every
// Machine executing the same bytecode (one per Prepared). The cache
// lock is taken only when a function is promoted (and at most once
// per (function, backend shape)); executing compiled code never
// touches it. Fleet workers and RunThreads groups share one cache so
// a function promoted by one worker is free for all others.
type closureCache struct {
	c       *bytecode
	mu      sync.Mutex
	byShape map[closShape][][]closStep
}

// compiledFor returns (compiling on first demand) fn's closure code
// specialized for the given backend shape.
func (cc *closureCache) compiledFor(shape closShape, fnIdx int32) []closStep {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	fns := cc.byShape[shape]
	if fns == nil {
		if cc.byShape == nil {
			cc.byShape = make(map[closShape][][]closStep)
		}
		fns = make([][]closStep, len(cc.c.funcs))
		cc.byShape[shape] = fns
	}
	if fns[fnIdx] == nil {
		fc := &fnCompiler{c: cc.c, fn: fnIdx, shape: shape}
		fns[fnIdx] = fc.compile()
	}
	return fns[fnIdx]
}

// Machine is the compiled engine: a cold bytecode tier plus
// per-function promotion to closure code. It is single-goroutine;
// many Machines share one bytecode and one closureCache through their
// Prepared.
type Machine struct {
	vm        vmState
	threshold uint64   // heat at which a function tiers up
	heat      []uint64 // per-function cold invocations + own statements (across runs)
	code      [][]closStep
	cache     *closureCache
	shape     closShape
	promos    uint64
	retv      *Value // staging between a ret step and its driver
	trap      error  // staging between a faulting step and its driver

	// Unboxed scalar return staging: a compiled ret step whose value is
	// a shadow-free 8-byte scalar stages it here (retScalar set, retv
	// nil) so the caller can deliver it with reg.setU instead of a byte
	// copy. retBuf materializes the top-level return value.
	retU      uint64
	retScalar bool
	retBuf    Value

	// tickSlowAt folds the step-limit and scheduling-hook checks into
	// one compare on mtick's hot path: vm.maxSteps normally, 0 when a
	// yield hook is installed (every tick must consider the hook).
	tickSlowAt uint64
}

var _ runner = (*Machine)(nil)

// newMachine binds a compiled program and its shared closure cache to
// cfg.Backend. cfg.Coder must be the coder c was compiled with
// (Prepare guarantees it); cfg.TierUp sets the promotion threshold
// (0 = DefaultTierUp).
func newMachine(c *bytecode, cache *closureCache, cfg Config) (*Machine, error) {
	if cfg.Backend == nil {
		return nil, errors.New("prog: Config.Backend is required")
	}
	m := &Machine{
		vm:        newVMState(c, cfg),
		threshold: cfg.TierUp,
		heat:      make([]uint64, len(c.funcs)),
		code:      make([][]closStep, len(c.funcs)),
		cache:     cache,
	}
	if m.threshold == 0 {
		m.threshold = DefaultTierUp
	}
	m.shape = closShape{
		checkUse: m.vm.checkUse,
		bulk:     m.vm.bulk != nil,
		prober:   m.vm.prober != nil,
	}
	m.tickSlowAt = m.vm.maxSteps
	return m, nil
}

// setSchedHook implements the runner contract (see RunThreads). Both
// tiers check the hook at every statement tick, so quantum boundaries
// are identical to the other engines.
func (m *Machine) setSchedHook(every uint64, fn func()) {
	m.vm.yieldEvery = every
	m.vm.yield = fn
	if fn != nil {
		m.tickSlowAt = 0
	} else {
		m.tickSlowAt = m.vm.maxSteps
	}
}

// SiteProfile reports the per-allocation-site profile; both tiers
// feed the same verdict inline caches, so the profile is independent
// of when promotion happened.
func (m *Machine) SiteProfile() []SiteStats { return m.vm.siteProfile() }

// Promotions reports how many functions this Machine has tiered up to
// closure code so far (monotonic across runs).
func (m *Machine) Promotions() uint64 { return m.promos }

// Threshold reports the effective tier-up threshold.
func (m *Machine) Threshold() uint64 { return m.threshold }

// Run executes the program on the given input; semantics are
// identical to Interp.Run.
func (m *Machine) Run(input []byte) (*Result, error) {
	res := &Result{}
	if err := m.run(res, input); err != nil {
		return nil, err
	}
	return res, nil
}

// RunReuse is Run recycling res's buffers (Output and Returned
// capacity), so steady-state re-execution allocates nothing. On a
// non-nil error (malformed program), res contents are unspecified,
// mirroring Run's nil result. Data in res from a previous run is
// overwritten; Returned's buffers are owned by the Machine and are
// invalidated by the next run.
func (m *Machine) RunReuse(res *Result, input []byte) error {
	return m.run(res, input)
}

func (m *Machine) run(res *Result, input []byte) error {
	vm := &m.vm
	vm.input = input
	vm.inPos = 0
	vm.output = res.Output[:0]
	vm.v = 0
	vm.steps = 0
	vm.cycles = 0
	vm.encUpdates = 0
	vm.allocs = 0
	vm.allocsByFn = [8]uint64{}
	vm.frees = 0
	vm.fault = nil
	for i := range vm.globals {
		vm.globals[i].def = false
	}
	vm.nframes = 0
	m.retv = nil
	m.trap = nil
	m.retScalar = false
	res.Returned = Value{}
	startCycles := vm.backend.Cycles()

	f := vm.pushFrame(0)
	rv, err := m.invoke(0, f)
	if err == nil {
		if m.retScalar {
			m.retScalar = false
			if cap(m.retBuf.Bytes) < 8 {
				m.retBuf.Bytes = make([]byte, 8)
			}
			m.retBuf.Bytes = m.retBuf.Bytes[:8]
			binary.LittleEndian.PutUint64(m.retBuf.Bytes, m.retU)
			rv = &m.retBuf
		}
		vm.setReturned(res, rv)
	}
	// Both tiers count steps without charging the per-statement cycle
	// cost (see mtick); settle it in one multiply so cycle totals match
	// the other engines exactly.
	vm.cycles += CycStmt * vm.steps
	res.Output = vm.output
	res.Steps = vm.steps
	res.EncUpdates = vm.encUpdates
	res.Allocs = vm.allocs
	res.AllocsByFn = vm.allocsByFn
	res.Frees = vm.frees
	res.InterpCycles = vm.cycles
	res.Cycles = vm.cycles + (vm.backend.Cycles() - startCycles)
	res.Fault = nil
	if err != nil {
		if errors.Is(err, errCrashed) {
			res.Fault = vm.fault
			return nil
		}
		return err
	}
	return nil
}

// invoke runs one activation of funcs[fnIdx] in frame f, choosing the
// tier: closure code if the function is promoted, promoting it first
// if its heat has reached the threshold, else the cold bytecode tier.
// Each cold invocation adds one to the heat and interpFrame adds the
// statements it ran, so promotion never happens mid-activation: a
// long-running activation heats its function for the next call.
func (m *Machine) invoke(fnIdx int32, f *frameV) (*Value, error) {
	steps := m.code[fnIdx]
	if steps == nil {
		if m.heat[fnIdx] < m.threshold {
			m.heat[fnIdx]++
			return m.interpFrame(fnIdx, f)
		}
		steps = m.promote(fnIdx)
	}
	return m.runSteps(steps, f)
}

// promote compiles (or fetches from the shared cache) fn's closure
// code and installs it for all future invocations by this Machine.
func (m *Machine) promote(fnIdx int32) []closStep {
	steps := m.cache.compiledFor(m.shape, fnIdx)
	m.code[fnIdx] = steps
	m.promos++
	return steps
}

// runSteps drives one activation through compiled closure code. The
// loop is the whole hot path: one indexed load and one indirect call
// per superinstruction, with return/fault peeled off as negative
// sentinels.
func (m *Machine) runSteps(steps []closStep, f *frameV) (*Value, error) {
	var i int32
	for i >= 0 {
		i = steps[i](m, f)
	}
	if i == stepReturn {
		rv := m.retv
		m.retv = nil
		return rv, nil
	}
	err := m.trap
	m.trap = nil
	return nil, err
}

// mtick is the per-statement bookkeeping both tiers share: step
// count, step limit, and the cooperative-scheduling hook. It reports
// false — with the error staged in trap — when the step limit is hit.
// It does NOT charge CycStmt here; run() charges CycStmt*steps once at
// the end, which is arithmetically identical and keeps this prefix
// inside the inlining budget.
func (m *Machine) mtick() bool {
	m.vm.steps++
	if m.vm.steps > m.tickSlowAt {
		return m.mtickSlow()
	}
	return true
}

// mtickSlow keeps the step-limit unwind and the scheduling hook out
// of mtick's inlinable hot prefix. With a yield hook installed every
// tick lands here; that is the threaded configuration, where the
// hook's own cost dominates anyway.
//
//go:noinline
func (m *Machine) mtickSlow() bool {
	vm := &m.vm
	if vm.steps > vm.maxSteps {
		return m.stepLimit()
	}
	if vm.yield != nil && vm.steps%vm.yieldEvery == 0 {
		vm.yield()
	}
	return true
}

//go:noinline
func (m *Machine) stepLimit() bool {
	m.trap = fmt.Errorf("prog %s: step limit %d exceeded", m.vm.c.p.Name, m.vm.maxSteps)
	return false
}

// takeTrap consumes the staged fault for paths that report errors by
// return value (the cold tier and invoke callers).
func (m *Machine) takeTrap() error {
	err := m.trap
	m.trap = nil
	return err
}

// callSite executes one call site from frame f — argument fetch
// through return-value delivery — dispatching the callee through the
// tier policy. The sequencing (arg errors, arity, depth, V update,
// cycle charges, prologue cost, V restore) mirrors the tree-walker's
// call exactly.
func (m *Machine) callSite(rec *callRec, f *frameV) error {
	vm := &m.vm
	callee := &vm.c.funcs[rec.fnIdx]
	opnds := vm.c.argsOf(rec)
	if cap(vm.args) < len(opnds) {
		vm.args = make([]*Value, len(opnds))
	}
	args := vm.args[:len(opnds)]
	for i, o := range opnds {
		v, err := vm.rd(f, o)
		if err != nil {
			return err
		}
		args[i] = v
	}
	if len(args) != int(callee.nparams) {
		return fmt.Errorf("prog %s: call to %s with %d args, want %d",
			vm.c.p.Name, callee.name, len(args), int(callee.nparams))
	}
	if vm.nframes > vm.maxDepth {
		return fmt.Errorf("prog %s: call depth limit %d exceeded", vm.c.p.Name, vm.maxDepth)
	}
	if rec.upd.Instrumented {
		vm.v = rec.upd.Apply(f.t)
		vm.encUpdates++
		vm.cycles += vm.c.encCycles
	}
	vm.cycles += CycCall
	nf := vm.pushFrame(rec.fnIdx)
	for i := int32(0); i < callee.nparams; i++ {
		nf.regs[i].set(args[i])
	}
	if callee.prologue {
		vm.cycles += CycEncPrologue
	}
	rv, err := m.invoke(rec.fnIdx, nf)
	if err != nil {
		return err
	}
	vm.nframes--
	// Restore discipline: V returns to the caller's context.
	vm.v = f.t
	if rec.dst != opndNone {
		if m.retScalar {
			m.retScalar = false
			f.regs[rec.dst].setU(m.retU)
		} else {
			if rv == nil {
				rv = &zeroValue
			}
			f.regs[rec.dst].set(rv)
		}
	} else {
		m.retScalar = false
	}
	return nil
}

// interpFrame is the cold tier: one activation interpreted from the
// flat bytecode, one switch over the opcodes confined to a single
// frame — calls recurse through invoke (where tier selection happens),
// and returns unwind to the caller activation. The statements the
// activation ticks are credited to the function's heat when it
// returns; an activation that aborts the run credits nothing. Clean
// scalars stay unboxed (scalarOf/setU), and an opBin marked fuseBr or
// fuseJump dispatches its successor too when its operands are clean.
func (m *Machine) interpFrame(fnIdx int32, f *frameV) (*Value, error) {
	vm := &m.vm
	code := vm.c.code
	pc := vm.c.funcs[fnIdx].entry
	var own uint64
	for {
		ins := &code[pc]
		if ins.tick {
			own++
			if !m.mtick() {
				return nil, m.takeTrap()
			}
		}
		switch ins.op {
		case opNop:
			// Costs the base step only.

		case opCheckVar:
			if !f.regs[ins.a].def {
				return nil, vm.undefVar(vm.c.funcs[f.fn].regNames[ins.a])
			}

		case opLoadK:
			f.regs[ins.dst].setU(vm.c.constU[^ins.a])

		case opMove:
			if u, ok := vm.scalarOf(f, ins.a); ok {
				f.regs[ins.dst].setU(u)
				break
			}
			src, err := vm.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			f.regs[ins.dst].set(src)

		case opBin:
			au, aok := vm.scalarOf(f, ins.a)
			bu, bok := vm.scalarOf(f, ins.b)
			if !aok || !bok {
				// Shadow planes, other widths or an undefined operand:
				// the materialized path, with rd's errors in order and
				// setBin's shadow propagation. The pair runs unfused.
				av, err := vm.rd(f, ins.a)
				if err != nil {
					return nil, err
				}
				bv, err := vm.rd(f, ins.b)
				if err != nil {
					return nil, err
				}
				r, err := binScalar(ins.bop, av.Uint(), bv.Uint())
				if err != nil {
					return nil, err
				}
				f.regs[ins.dst].setBin(r, av, bv)
				break
			}
			r, err := binScalar(ins.bop, au, bu)
			if err != nil {
				return nil, err
			}
			f.regs[ins.dst].setU(r)
			// A marked successor carries no tick and is no jump target,
			// so it can run in this dispatch. An opBr whose CheckUse must
			// see the result as a Value runs unfused.
			if ins.fuse == fuseJump {
				pc = code[pc+1].aux
				continue
			}
			if ins.fuse == fuseBr && !vm.checkUse {
				if r == 0 {
					pc = code[pc+1].aux
				} else {
					pc += 2
				}
				continue
			}

		case opInputLen:
			f.regs[ins.dst].setU(uint64(len(vm.input)))

		case opInputRem:
			f.regs[ins.dst].setU(uint64(len(vm.input) - vm.inPos))

		case opGlobalGet:
			g := &vm.globals[ins.aux]
			if g.def {
				f.regs[ins.dst].set(&g.val)
			} else {
				f.regs[ins.dst].setScalar(0)
			}

		case opGlobalSet:
			src, err := vm.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			vm.globals[ins.aux].set(src)

		case opJump:
			pc = ins.aux
			continue

		case opBr:
			var c uint64
			if !vm.checkUse {
				u, err := vm.uintOf(f, ins.a)
				if err != nil {
					return nil, err
				}
				c = u
			} else {
				cv, err := vm.rd(f, ins.a)
				if err != nil {
					return nil, err
				}
				vm.backend.CheckUse(*cv, UseControlFlow, vm.v)
				c = cv.Uint()
			}
			if c == 0 {
				pc = ins.aux
				continue
			}

		case opCall:
			if err := m.callSite(&vm.c.calls[ins.aux], f); err != nil {
				return nil, err
			}

		case opRet, opRetVoid:
			m.heat[fnIdx] += own
			if ins.op == opRet {
				v, err := vm.rd(f, ins.a)
				if err != nil {
					return nil, err
				}
				return v, nil
			}
			return nil, nil

		case opAlloc, opRealloc:
			rec := &vm.c.allocs[ins.aux]
			// Every operand is consumed as an integer, and no use point
			// sees one, so all of them take the unboxed read.
			var ptrOp uint64
			var err error
			if ins.op == opRealloc {
				if ptrOp, err = vm.uintOf(f, rec.ptr); err != nil {
					return nil, err
				}
			}
			size, err := vm.uintOf(f, rec.size)
			if err != nil {
				return nil, err
			}
			nv, err := vm.uintOf(f, rec.n)
			if err != nil {
				return nil, err
			}
			al, err := vm.uintOf(f, rec.align)
			if err != nil {
				return nil, err
			}
			ccid := vm.v
			switch {
			case rec.ccid != opndNone:
				if ccid, err = vm.uintOf(f, rec.ccid); err != nil {
					return nil, err
				}
				vm.encUpdates++
				vm.cycles += CycEncUpdatePCC
			case rec.upd.Instrumented:
				ccid = rec.upd.Apply(f.t)
				vm.encUpdates++
				vm.cycles += vm.c.encCycles
			}
			vm.allocs++
			vm.allocsByFn[rec.byFn]++
			var ptr uint64
			var aerr error
			if ins.op == opRealloc {
				ptr, aerr = vm.backend.Realloc(ccid, ptrOp, size)
			} else {
				ptr, aerr = vm.backend.Alloc(rec.fn, ccid, nv, size, al)
			}
			if aerr != nil {
				return nil, vm.crash(aerr)
			}
			f.regs[rec.dst].setU(ptr)
			vm.ics[rec.ic].allocs++
			if vm.prober != nil {
				vm.noteAlloc(rec, ccid)
			}

		case opFree:
			var ptr uint64
			if !vm.checkUse {
				u, err := vm.uintOf(f, ins.a)
				if err != nil {
					return nil, err
				}
				ptr = u
			} else {
				pv, err := vm.rd(f, ins.a)
				if err != nil {
					return nil, err
				}
				vm.backend.CheckUse(*pv, UseAddress, vm.v)
				ptr = pv.Uint()
			}
			vm.frees++
			if ferr := vm.backend.Free(ptr, vm.v); ferr != nil {
				return nil, vm.crash(ferr)
			}

		case opLoad:
			addr, err := vm.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			n, err := vm.uintOf(f, ins.c)
			if err != nil {
				return nil, err
			}
			r := &f.regs[ins.dst]
			if vm.bulk != nil {
				if lerr := vm.loadIntoReg(r, addr, n); lerr != nil {
					return nil, vm.crash(lerr)
				}
			} else {
				v, lerr := vm.backend.Load(addr, n, vm.v)
				if lerr != nil {
					return nil, vm.crash(lerr)
				}
				r.val = v
				r.uok = false
				r.def = true
			}

		case opStore:
			addr, err := vm.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			src, err := vm.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			n := uint64(8)
			if ins.dst != opndNone {
				if n, err = vm.uintOf(f, ins.dst); err != nil {
					return nil, err
				}
				if n > 8 {
					n = 8
				}
			}
			if serr := vm.backend.Store(addr, src.View(0, int(n)), vm.v); serr != nil {
				return nil, vm.crash(serr)
			}

		case opStoreVar:
			addr, err := vm.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			src, err := vm.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if serr := vm.backend.Store(addr, *src, vm.v); serr != nil {
				return nil, vm.crash(serr)
			}

		case opStoreBytes:
			addr, err := vm.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			if serr := vm.backend.Store(addr, vm.c.datas[ins.aux], vm.v); serr != nil {
				return nil, vm.crash(serr)
			}

		case opMemcpy:
			dst, err := vm.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			src, err := vm.rd(f, ins.b)
			if err != nil {
				return nil, err
			}
			nv, err := vm.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if vm.checkUse {
				vm.backend.CheckUse(*dst, UseAddress, vm.v)
				vm.backend.CheckUse(*src, UseAddress, vm.v)
			}
			if merr := vm.backend.Memcpy(dst.Uint(), src.Uint(), nv.Uint(), vm.v); merr != nil {
				return nil, vm.crash(merr)
			}

		case opMemset:
			dst, err := vm.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			bv, err := vm.rd(f, ins.b)
			if err != nil {
				return nil, err
			}
			nv, err := vm.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if vm.checkUse {
				vm.backend.CheckUse(*dst, UseAddress, vm.v)
			}
			if merr := vm.backend.Memset(dst.Uint(), byte(bv.Uint()), nv.Uint(), vm.v); merr != nil {
				return nil, vm.crash(merr)
			}

		case opReadInput:
			nv, err := vm.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			// Clamp in uint64 space (see the tree-walker's ReadInput).
			take := len(vm.input) - vm.inPos
			if nu := nv.Uint(); nu < uint64(take) {
				take = int(nu)
			}
			r := &f.regs[ins.dst]
			if cap(r.val.Bytes) < take {
				r.val.Bytes = make([]byte, take)
			} else {
				r.val.Bytes = r.val.Bytes[:take]
			}
			copy(r.val.Bytes, vm.input[vm.inPos:vm.inPos+take])
			vm.inPos += take
			r.val.Valid = nil
			r.val.Origin = nil
			r.uok = false
			r.def = true

		case opOutput:
			addr, err := vm.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			nv, err := vm.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if vm.bulk != nil {
				if lerr := vm.bulk.LoadInto(&vm.scratch, addr, nv.Uint(), vm.v); lerr != nil {
					return nil, vm.crash(lerr)
				}
				if vm.checkUse {
					vm.backend.CheckUse(vm.scratch, UseOutput, vm.v)
				}
				vm.output = append(vm.output, vm.scratch.Bytes...)
				break
			}
			v, lerr := vm.backend.Load(addr, nv.Uint(), vm.v)
			if lerr != nil {
				return nil, vm.crash(lerr)
			}
			if vm.checkUse {
				vm.backend.CheckUse(v, UseOutput, vm.v)
			}
			vm.output = append(vm.output, v.Bytes...)

		case opOutputVar:
			src, err := vm.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if vm.checkUse {
				vm.backend.CheckUse(*src, UseOutput, vm.v)
			}
			vm.output = append(vm.output, src.Bytes...)

		default:
			return nil, fmt.Errorf("prog %s: unknown opcode %d", vm.c.p.Name, ins.op)
		}
		pc++
	}
}

// fetch resolves a baked operand reference: an interned constant (no
// checks) or a register with the definedness check. nil means the
// undefined-variable error (the tree-walker's exact text) is staged
// in trap. The returned Value is always materialized, so it is safe
// to hand to backends, registers, and shadow consumers.
func (m *Machine) fetch(f *frameV, o *opref) *Value {
	if o.k != nil {
		return o.k
	}
	r := &f.regs[o.idx]
	if !r.def {
		m.fetchUndef(o)
		return nil
	}
	if r.uok {
		r.materialize()
	}
	return &r.val
}

// fetchScalar is fetch's unboxed fast path. It reports scalarOK when
// the operand is a shadow-free 8-byte scalar — a baked constant, a
// cached setU scalar, or a clean materialized scalar — without
// touching byte buffers. scalarFault means the undefined-variable
// error is staged in trap; scalarBoxed means the caller must fall
// back to fetch (shadow planes or a non-8-byte value).
const (
	scalarOK int32 = iota
	scalarBoxed
	scalarFault
)

func (m *Machine) fetchScalar(f *frameV, o *opref) (uint64, int32) {
	if o.k != nil {
		return o.ku, scalarOK
	}
	r := &f.regs[o.idx]
	// uok implies the cached u is current (every byte-level write
	// clears it); def guards against a stale cache on a recycled frame
	// whose registers were reset.
	if r.uok && r.def {
		return r.u, scalarOK
	}
	return m.fetchScalarSlow(r, o)
}

// fetchScalarSlow handles the cases off fetchScalar's inlinable hot
// prefix: undefined registers, clean materialized 8-byte scalars, and
// the boxed fallback signal.
//
//go:noinline
func (m *Machine) fetchScalarSlow(r *reg, o *opref) (uint64, int32) {
	if !r.def {
		m.fetchUndef(o)
		return 0, scalarFault
	}
	if u, ok := r.scalar(); ok {
		return u, scalarOK
	}
	return 0, scalarBoxed
}

// fetchUint resolves an operand consumed only as an integer (sizes,
// counts, addresses outside CheckUse shapes), preferring the unboxed
// path. ok=false means the undefined-variable error is staged.
func (m *Machine) fetchUint(f *frameV, o *opref) (uint64, bool) {
	if o.k != nil {
		return o.ku, true
	}
	r := &f.regs[o.idx]
	if r.uok && r.def {
		return r.u, true
	}
	return m.fetchUintSlow(f, r, o)
}

//go:noinline
func (m *Machine) fetchUintSlow(f *frameV, r *reg, o *opref) (uint64, bool) {
	u, s := m.fetchScalarSlow(r, o)
	if s == scalarOK {
		return u, true
	}
	if s == scalarFault {
		return 0, false
	}
	v := m.fetch(f, o)
	if v == nil {
		return 0, false
	}
	return v.Uint(), true
}

//go:noinline
func (m *Machine) fetchUndef(o *opref) {
	m.trap = m.vm.undefVar(o.name)
}

// opref is an operand resolved at closure-compile time: either a
// direct pointer to an interned constant (with its scalar view ku
// baked — the constant pool only holds clean 8-byte scalars) or a
// register index plus the variable name needed for the
// undefined-variable error.
type opref struct {
	idx  int32
	k    *Value
	ku   uint64
	name string
}

// fnCompiler lowers one function's instruction range into closure
// code for one backend shape. Nothing it builds captures a Machine:
// closures reference only immutable bytecode and baked scalars,
// receiving the executing Machine and frame as parameters.
type fnCompiler struct {
	c     *bytecode
	fn    int32
	shape closShape

	entry, end int32
	stepOf     []int32 // rel pc -> step index (-1 inside a fused unit)
}

// ref bakes one instruction operand.
func (fc *fnCompiler) ref(o int32) opref {
	if o >= 0 {
		return opref{idx: o, name: fc.c.funcs[fc.fn].regNames[o]}
	}
	return opref{idx: -1, k: &fc.c.consts[^o], ku: fc.c.constU[^o]}
}

// fnRange computes [entry, end) for fn in the flat instruction
// stream: functions are emitted contiguously, so end is the smallest
// entry greater than fn's (or the end of the stream).
func fnRange(c *bytecode, fnIdx int32) (int32, int32) {
	entry := c.funcs[fnIdx].entry
	end := int32(len(c.code))
	for i := range c.funcs {
		if e := c.funcs[i].entry; e > entry && e < end {
			end = e
		}
	}
	return entry, end
}

// compile lowers the function. Two passes: the first partitions the
// range into units (a pair the compiler marked for fusion becomes one
// unit) and assigns step indexes; the second builds the closures with
// final next/branch indexes baked in.
func (fc *fnCompiler) compile() []closStep {
	fc.entry, fc.end = fnRange(fc.c, fc.fn)
	code := fc.c.code
	n := int(fc.end - fc.entry)

	type unit struct {
		pc    int32
		fused bool
	}
	var units []unit
	fc.stepOf = make([]int32, n)
	for pc := fc.entry; pc < fc.end; {
		u := unit{pc: pc, fused: code[pc].fuse != fuseNone}
		fc.stepOf[pc-fc.entry] = int32(len(units))
		units = append(units, u)
		if u.fused {
			fc.stepOf[pc+1-fc.entry] = -1
			pc += 2
		} else {
			pc++
		}
	}

	steps := make([]closStep, len(units))
	for i, u := range units {
		steps[i] = fc.build(u.pc, u.fused)
	}
	return steps
}

// stepAt maps an absolute pc to its step index. A pc at or past the
// function end cannot be produced by well-formed bytecode (every
// function is terminated by opRetVoid); map it to a bare void return
// so even hypothetical malformed code cannot index out of range.
func (fc *fnCompiler) stepAt(pc int32) int32 {
	if pc < fc.entry || pc >= fc.end {
		return stepReturn
	}
	return fc.stepOf[pc-fc.entry]
}

// build lowers the unit starting at pc (two instructions when fused).
func (fc *fnCompiler) build(pc int32, fused bool) closStep {
	c := fc.c
	ins := &c.code[pc]
	tick := ins.tick
	next := fc.stepAt(pc + 1)
	if fused {
		next = fc.stepAt(pc + 2)
	}

	if fused {
		nxt := &c.code[pc+1]
		switch ins.fuse {
		case fuseBr:
			return fc.buildBinBr(ins, nxt, next)
		case fuseJump:
			return fc.buildBinJmp(ins, nxt)
		default:
			return fc.buildBinBin(ins, nxt, next)
		}
	}

	switch ins.op {
	case opNop:
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			return next
		}

	case opCheckVar:
		idx := ins.a
		name := c.funcs[fc.fn].regNames[idx]
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			if !f.regs[idx].def {
				m.trap = m.vm.undefVar(name)
				return stepFault
			}
			return next
		}

	case opLoadK:
		dst := ins.dst
		u := c.constU[^ins.a]
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			f.regs[dst].setU(u)
			return next
		}

	case opMove:
		dst := ins.dst
		a := fc.ref(ins.a)
		aConst, aku, aIdx := a.k != nil, a.ku, a.idx
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			if aConst {
				f.regs[dst].setU(aku)
				return next
			}
			if ra := &f.regs[aIdx]; ra.uok && ra.def {
				f.regs[dst].setU(ra.u)
				return next
			}
			src := m.fetch(f, &a)
			if src == nil {
				return stepFault
			}
			f.regs[dst].set(src)
			return next
		}

	case opBin:
		dst, bop := ins.dst, ins.bop
		a, b := fc.ref(ins.a), fc.ref(ins.b)
		aConst, aku, aIdx := a.k != nil, a.ku, a.idx
		bConst, bku, bIdx := b.k != nil, b.ku, b.idx
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			var au, bu uint64
			fast := true
			if aConst {
				au = aku
			} else if ra := &f.regs[aIdx]; ra.uok && ra.def {
				au = ra.u
			} else {
				fast = false
			}
			if fast {
				if bConst {
					bu = bku
				} else if rb := &f.regs[bIdx]; rb.uok && rb.def {
					bu = rb.u
				} else {
					fast = false
				}
			}
			if fast {
				r, err := binScalar(bop, au, bu)
				if err != nil {
					m.trap = err
					return stepFault
				}
				f.regs[dst].setU(r)
				return next
			}
			if !binInto(m, f, bop, &a, &b, dst) {
				return stepFault
			}
			return next
		}

	case opInputLen:
		dst := ins.dst
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			f.regs[dst].setU(uint64(len(m.vm.input)))
			return next
		}

	case opInputRem:
		dst := ins.dst
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			f.regs[dst].setU(uint64(len(m.vm.input) - m.vm.inPos))
			return next
		}

	case opGlobalGet:
		dst, aux := ins.dst, ins.aux
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			g := &m.vm.globals[aux]
			if g.def {
				f.regs[dst].set(&g.val)
			} else {
				f.regs[dst].setScalar(0)
			}
			return next
		}

	case opGlobalSet:
		aux := ins.aux
		a := fc.ref(ins.a)
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			src := m.fetch(f, &a)
			if src == nil {
				return stepFault
			}
			m.vm.globals[aux].set(src)
			return next
		}

	case opJump:
		tgt := fc.stepAt(ins.aux)
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			return tgt
		}

	case opBr:
		a := fc.ref(ins.a)
		elseIdx := fc.stepAt(ins.aux)
		if !fc.shape.checkUse {
			aConst, aku, aIdx := a.k != nil, a.ku, a.idx
			return func(m *Machine, f *frameV) int32 {
				if tick && !m.mtick() {
					return stepFault
				}
				var cv uint64
				if aConst {
					cv = aku
				} else if ra := &f.regs[aIdx]; ra.uok && ra.def {
					cv = ra.u
				} else {
					u, ok := m.fetchUintSlow(f, &f.regs[aIdx], &a)
					if !ok {
						return stepFault
					}
					cv = u
				}
				if cv == 0 {
					return elseIdx
				}
				return next
			}
		}
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			cv := m.fetch(f, &a)
			if cv == nil {
				return stepFault
			}
			m.vm.backend.CheckUse(*cv, UseControlFlow, m.vm.v)
			if cv.Uint() == 0 {
				return elseIdx
			}
			return next
		}

	case opCall:
		return fc.buildCall(ins, tick, next)

	case opRet:
		a := fc.ref(ins.a)
		aConst, aku, aIdx := a.k != nil, a.ku, a.idx
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			// Stage a scalar unboxed when possible; the call site (or
			// run's top-level unwind) consumes retU/retScalar immediately
			// after invoke returns.
			if aConst {
				m.retU = aku
				m.retScalar = true
				m.retv = nil
				return stepReturn
			}
			if ra := &f.regs[aIdx]; ra.uok && ra.def {
				m.retU = ra.u
				m.retScalar = true
				m.retv = nil
				return stepReturn
			}
			u, s := m.fetchScalarSlow(&f.regs[aIdx], &a)
			if s == scalarOK {
				m.retU = u
				m.retScalar = true
				m.retv = nil
				return stepReturn
			}
			if s == scalarFault {
				return stepFault
			}
			v := m.fetch(f, &a)
			if v == nil {
				return stepFault
			}
			m.retv = v
			return stepReturn
		}

	case opRetVoid:
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			m.retv = nil
			return stepReturn
		}

	case opAlloc, opRealloc:
		return fc.buildAlloc(ins, tick, next)

	case opFree:
		a := fc.ref(ins.a)
		if !fc.shape.checkUse {
			return func(m *Machine, f *frameV) int32 {
				if tick && !m.mtick() {
					return stepFault
				}
				pu, ok := m.fetchUint(f, &a)
				if !ok {
					return stepFault
				}
				vm := &m.vm
				vm.frees++
				if ferr := vm.backend.Free(pu, vm.v); ferr != nil {
					m.trap = vm.crash(ferr)
					return stepFault
				}
				return next
			}
		}
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			pv := m.fetch(f, &a)
			if pv == nil {
				return stepFault
			}
			vm := &m.vm
			vm.backend.CheckUse(*pv, UseAddress, vm.v)
			vm.frees++
			if ferr := vm.backend.Free(pv.Uint(), vm.v); ferr != nil {
				m.trap = vm.crash(ferr)
				return stepFault
			}
			return next
		}

	case opLoad:
		dst := ins.dst
		ea := fc.buildAddr(ins.a, ins.b)
		nref := fc.ref(ins.c)
		bulk := fc.shape.bulk
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			nv := m.fetch(f, &nref)
			if nv == nil {
				return stepFault
			}
			vm := &m.vm
			r := &f.regs[dst]
			if bulk {
				if lerr := vm.loadIntoReg(r, addr, nv.Uint()); lerr != nil {
					m.trap = vm.crash(lerr)
					return stepFault
				}
			} else {
				v, lerr := vm.backend.Load(addr, nv.Uint(), vm.v)
				if lerr != nil {
					m.trap = vm.crash(lerr)
					return stepFault
				}
				r.val = v
				r.uok = false
				r.def = true
			}
			return next
		}

	case opStore:
		ea := fc.buildAddr(ins.a, ins.b)
		src := fc.ref(ins.c)
		hasN := ins.dst != opndNone
		var nref opref
		if hasN {
			nref = fc.ref(ins.dst)
		}
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			sv := m.fetch(f, &src)
			if sv == nil {
				return stepFault
			}
			n := uint64(8)
			if hasN {
				nv := m.fetch(f, &nref)
				if nv == nil {
					return stepFault
				}
				n = nv.Uint()
				if n > 8 {
					n = 8
				}
			}
			vm := &m.vm
			if serr := vm.backend.Store(addr, sv.View(0, int(n)), vm.v); serr != nil {
				m.trap = vm.crash(serr)
				return stepFault
			}
			return next
		}

	case opStoreVar:
		ea := fc.buildAddr(ins.a, ins.b)
		src := fc.ref(ins.c)
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			sv := m.fetch(f, &src)
			if sv == nil {
				return stepFault
			}
			vm := &m.vm
			if serr := vm.backend.Store(addr, *sv, vm.v); serr != nil {
				m.trap = vm.crash(serr)
				return stepFault
			}
			return next
		}

	case opStoreBytes:
		ea := fc.buildAddr(ins.a, ins.b)
		data := c.datas[ins.aux]
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			vm := &m.vm
			if serr := vm.backend.Store(addr, data, vm.v); serr != nil {
				m.trap = vm.crash(serr)
				return stepFault
			}
			return next
		}

	case opMemcpy:
		a, b, nref := fc.ref(ins.a), fc.ref(ins.b), fc.ref(ins.c)
		cu := fc.shape.checkUse
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			dv := m.fetch(f, &a)
			if dv == nil {
				return stepFault
			}
			sv := m.fetch(f, &b)
			if sv == nil {
				return stepFault
			}
			nv := m.fetch(f, &nref)
			if nv == nil {
				return stepFault
			}
			vm := &m.vm
			if cu {
				vm.backend.CheckUse(*dv, UseAddress, vm.v)
				vm.backend.CheckUse(*sv, UseAddress, vm.v)
			}
			if merr := vm.backend.Memcpy(dv.Uint(), sv.Uint(), nv.Uint(), vm.v); merr != nil {
				m.trap = vm.crash(merr)
				return stepFault
			}
			return next
		}

	case opMemset:
		a, b, nref := fc.ref(ins.a), fc.ref(ins.b), fc.ref(ins.c)
		cu := fc.shape.checkUse
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			dv := m.fetch(f, &a)
			if dv == nil {
				return stepFault
			}
			bv := m.fetch(f, &b)
			if bv == nil {
				return stepFault
			}
			nv := m.fetch(f, &nref)
			if nv == nil {
				return stepFault
			}
			vm := &m.vm
			if cu {
				vm.backend.CheckUse(*dv, UseAddress, vm.v)
			}
			if merr := vm.backend.Memset(dv.Uint(), byte(bv.Uint()), nv.Uint(), vm.v); merr != nil {
				m.trap = vm.crash(merr)
				return stepFault
			}
			return next
		}

	case opReadInput:
		dst := ins.dst
		a := fc.ref(ins.a)
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			nv := m.fetch(f, &a)
			if nv == nil {
				return stepFault
			}
			vm := &m.vm
			// Clamp in uint64 space (see the tree-walker's ReadInput).
			take := len(vm.input) - vm.inPos
			if nu := nv.Uint(); nu < uint64(take) {
				take = int(nu)
			}
			r := &f.regs[dst]
			if cap(r.val.Bytes) < take {
				r.val.Bytes = make([]byte, take)
			} else {
				r.val.Bytes = r.val.Bytes[:take]
			}
			copy(r.val.Bytes, vm.input[vm.inPos:vm.inPos+take])
			vm.inPos += take
			r.val.Valid = nil
			r.val.Origin = nil
			r.uok = false
			r.def = true
			return next
		}

	case opOutput:
		ea := fc.buildAddr(ins.a, ins.b)
		nref := fc.ref(ins.c)
		bulk, cu := fc.shape.bulk, fc.shape.checkUse
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			addr, ok := ea(m, f)
			if !ok {
				return stepFault
			}
			nv := m.fetch(f, &nref)
			if nv == nil {
				return stepFault
			}
			vm := &m.vm
			if bulk {
				if lerr := vm.bulk.LoadInto(&vm.scratch, addr, nv.Uint(), vm.v); lerr != nil {
					m.trap = vm.crash(lerr)
					return stepFault
				}
				if cu {
					vm.backend.CheckUse(vm.scratch, UseOutput, vm.v)
				}
				vm.output = append(vm.output, vm.scratch.Bytes...)
				return next
			}
			v, lerr := vm.backend.Load(addr, nv.Uint(), vm.v)
			if lerr != nil {
				m.trap = vm.crash(lerr)
				return stepFault
			}
			if cu {
				vm.backend.CheckUse(v, UseOutput, vm.v)
			}
			vm.output = append(vm.output, v.Bytes...)
			return next
		}

	case opOutputVar:
		src := fc.ref(ins.c)
		cu := fc.shape.checkUse
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			sv := m.fetch(f, &src)
			if sv == nil {
				return stepFault
			}
			vm := &m.vm
			if cu {
				vm.backend.CheckUse(*sv, UseOutput, vm.v)
			}
			vm.output = append(vm.output, sv.Bytes...)
			return next
		}

	default:
		// Unreachable for compiled bytecode; preserve the cold tier's
		// runtime error for hypothetical malformed streams.
		op := ins.op
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			m.trap = fmt.Errorf("prog %s: unknown opcode %d", m.vm.c.p.Name, op)
			return stepFault
		}
	}
}

// buildAddr bakes an effective-address computation (base + optional
// offset with use-point checks), mirroring vmState.effAddr. false means a
// fault is staged in trap.
func (fc *fnCompiler) buildAddr(a, b int32) func(m *Machine, f *frameV) (uint64, bool) {
	base := fc.ref(a)
	if !fc.shape.checkUse {
		bConst, bku, bIdx := base.k != nil, base.ku, base.idx
		if b == opndNone {
			return func(m *Machine, f *frameV) (uint64, bool) {
				if bConst {
					return bku, true
				}
				if r := &f.regs[bIdx]; r.uok && r.def {
					return r.u, true
				}
				return m.fetchUintSlow(f, &f.regs[bIdx], &base)
			}
		}
		off := fc.ref(b)
		oConst, oku, oIdx := off.k != nil, off.ku, off.idx
		return func(m *Machine, f *frameV) (uint64, bool) {
			var bu, ou uint64
			if bConst {
				bu = bku
			} else if r := &f.regs[bIdx]; r.uok && r.def {
				bu = r.u
			} else {
				u, ok := m.fetchUintSlow(f, &f.regs[bIdx], &base)
				if !ok {
					return 0, false
				}
				bu = u
			}
			if oConst {
				ou = oku
			} else if r := &f.regs[oIdx]; r.uok && r.def {
				ou = r.u
			} else {
				u, ok := m.fetchUintSlow(f, &f.regs[oIdx], &off)
				if !ok {
					return 0, false
				}
				ou = u
			}
			return bu + ou, true
		}
	}
	if b == opndNone {
		return func(m *Machine, f *frameV) (uint64, bool) {
			bv := m.fetch(f, &base)
			if bv == nil {
				return 0, false
			}
			m.vm.backend.CheckUse(*bv, UseAddress, m.vm.v)
			return bv.Uint(), true
		}
	}
	off := fc.ref(b)
	return func(m *Machine, f *frameV) (uint64, bool) {
		bv := m.fetch(f, &base)
		if bv == nil {
			return 0, false
		}
		m.vm.backend.CheckUse(*bv, UseAddress, m.vm.v)
		ov := m.fetch(f, &off)
		if ov == nil {
			return 0, false
		}
		m.vm.backend.CheckUse(*ov, UseAddress, m.vm.v)
		return bv.Uint() + ov.Uint(), true
	}
}

// buildCall bakes one call site: static arity, the SiteUpdate as
// plain integer arithmetic, and the callee's prologue cost. The
// callee dispatches through invoke, so tier-up applies per function
// even in the middle of a caller's compiled activation. Arities up to
// four stage arguments in a stack buffer instead of the cold tier's
// shared slice.
func (fc *fnCompiler) buildCall(ins *instr, tick bool, next int32) closStep {
	c := fc.c
	rec := &c.calls[ins.aux]
	callee := &c.funcs[rec.fnIdx]
	opnds := c.argsOf(rec)
	argRefs := make([]opref, len(opnds))
	for i, o := range opnds {
		argRefs[i] = fc.ref(o)
	}
	fnIdx, dst := rec.fnIdx, rec.dst
	nparams := int(callee.nparams)
	calleeName := callee.name
	prologue := callee.prologue
	instrumented := rec.upd.Instrumented
	mul3 := rec.upd.Mul3
	konst := rec.upd.Const
	encCyc := c.encCycles
	arityBad := len(argRefs) != nparams

	argN := len(argRefs)

	// Both variants inline the full call sequence — argument staging,
	// arity/depth checks, V update, cycle charges, frame push, callee
	// dispatch, V restore, return delivery — so a compiled call costs
	// one closure invocation plus the callee itself. Argument fetch
	// errors sort before the arity error, which sorts before the depth
	// error (the tree-walker's order).
	if argN <= 4 {
		return func(m *Machine, f *frameV) int32 {
			if tick && !m.mtick() {
				return stepFault
			}
			// Stage each argument unboxed when possible; a nil vbuf entry
			// means ubuf holds the scalar.
			var ubuf [4]uint64
			var vbuf [4]*Value
			for i := range argRefs {
				o := &argRefs[i]
				if o.k != nil {
					ubuf[i] = o.ku
					continue
				}
				r := &f.regs[o.idx]
				if r.uok && r.def {
					ubuf[i] = r.u
					continue
				}
				u, s := m.fetchScalarSlow(r, o)
				if s == scalarOK {
					ubuf[i] = u
					continue
				}
				if s == scalarFault {
					return stepFault
				}
				v := m.fetch(f, o)
				if v == nil {
					return stepFault
				}
				vbuf[i] = v
			}
			vm := &m.vm
			if arityBad {
				m.trap = fmt.Errorf("prog %s: call to %s with %d args, want %d",
					vm.c.p.Name, calleeName, argN, nparams)
				return stepFault
			}
			if vm.nframes > vm.maxDepth {
				m.trap = fmt.Errorf("prog %s: call depth limit %d exceeded", vm.c.p.Name, vm.maxDepth)
				return stepFault
			}
			if instrumented {
				if mul3 {
					vm.v = 3*f.t + konst
				} else {
					vm.v = f.t + konst
				}
				vm.encUpdates++
				vm.cycles += encCyc
			}
			vm.cycles += CycCall
			nf := vm.pushFrame(fnIdx)
			for i := 0; i < argN; i++ {
				if vbuf[i] == nil {
					nf.regs[i].setU(ubuf[i])
				} else {
					nf.regs[i].set(vbuf[i])
				}
			}
			if prologue {
				vm.cycles += CycEncPrologue
			}
			rv, err := m.invoke(fnIdx, nf)
			if err != nil {
				m.trap = err
				return stepFault
			}
			vm.nframes--
			// Restore discipline: V returns to the caller's context.
			vm.v = f.t
			if dst != opndNone {
				if m.retScalar {
					m.retScalar = false
					f.regs[dst].setU(m.retU)
				} else {
					if rv == nil {
						rv = &zeroValue
					}
					f.regs[dst].set(rv)
				}
			} else {
				m.retScalar = false
			}
			return next
		}
	}
	return func(m *Machine, f *frameV) int32 {
		if tick && !m.mtick() {
			return stepFault
		}
		vm := &m.vm
		if cap(vm.args) < argN {
			vm.args = make([]*Value, argN)
		}
		args := vm.args[:argN]
		for i := range argRefs {
			v := m.fetch(f, &argRefs[i])
			if v == nil {
				return stepFault
			}
			args[i] = v
		}
		if arityBad {
			m.trap = fmt.Errorf("prog %s: call to %s with %d args, want %d",
				vm.c.p.Name, calleeName, argN, nparams)
			return stepFault
		}
		if vm.nframes > vm.maxDepth {
			m.trap = fmt.Errorf("prog %s: call depth limit %d exceeded", vm.c.p.Name, vm.maxDepth)
			return stepFault
		}
		if instrumented {
			if mul3 {
				vm.v = 3*f.t + konst
			} else {
				vm.v = f.t + konst
			}
			vm.encUpdates++
			vm.cycles += encCyc
		}
		vm.cycles += CycCall
		nf := vm.pushFrame(fnIdx)
		for i := 0; i < argN; i++ {
			nf.regs[i].set(args[i])
		}
		if prologue {
			vm.cycles += CycEncPrologue
		}
		rv, err := m.invoke(fnIdx, nf)
		if err != nil {
			m.trap = err
			return stepFault
		}
		vm.nframes--
		// Restore discipline: V returns to the caller's context.
		vm.v = f.t
		if dst != opndNone {
			if m.retScalar {
				m.retScalar = false
				f.regs[dst].setU(m.retU)
			} else {
				if rv == nil {
					rv = &zeroValue
				}
				f.regs[dst].set(rv)
			}
		} else {
			m.retScalar = false
		}
		return next
	}
}

// buildAlloc bakes one allocation/realloc site: the SiteUpdate (or
// explicit-CCID path) as integer arithmetic and the patch-verdict
// probe per backend shape. The verdict inline cache (noteAlloc) is
// shared with the cold tier.
func (fc *fnCompiler) buildAlloc(ins *instr, tick bool, next int32) closStep {
	c := fc.c
	rec := &c.allocs[ins.aux]
	realloc := ins.op == opRealloc
	ptrRef := opref{idx: -1, k: &zeroValue}
	if realloc {
		ptrRef = fc.ref(rec.ptr)
	}
	sizeRef := fc.ref(rec.size)
	nRef := fc.ref(rec.n)
	alignRef := fc.ref(rec.align)
	hasCCID := rec.ccid != opndNone
	var ccidRef opref
	if hasCCID {
		ccidRef = fc.ref(rec.ccid)
	}
	instrumented := rec.upd.Instrumented
	mul3 := rec.upd.Mul3
	konst := rec.upd.Const
	encCyc := c.encCycles
	allocFn := rec.fn
	byFn := rec.byFn
	dst, icIdx := rec.dst, rec.ic
	probe := fc.shape.prober

	return func(m *Machine, f *frameV) int32 {
		if tick && !m.mtick() {
			return stepFault
		}
		vm := &m.vm
		// Every operand here is consumed as an integer (the allocator
		// interface takes uint64s), so the unboxed path applies even
		// under CheckUse shapes: the cold tier performs no use-point check on
		// allocation operands either.
		var ptrU uint64
		if realloc {
			u, ok := m.fetchUint(f, &ptrRef)
			if !ok {
				return stepFault
			}
			ptrU = u
		}
		sizeU, ok := m.fetchUint(f, &sizeRef)
		if !ok {
			return stepFault
		}
		nU, ok := m.fetchUint(f, &nRef)
		if !ok {
			return stepFault
		}
		alignU, ok := m.fetchUint(f, &alignRef)
		if !ok {
			return stepFault
		}
		ccid := vm.v
		if hasCCID {
			cv, ok := m.fetchUint(f, &ccidRef)
			if !ok {
				return stepFault
			}
			ccid = cv
			vm.encUpdates++
			vm.cycles += CycEncUpdatePCC
		} else if instrumented {
			if mul3 {
				ccid = 3*f.t + konst
			} else {
				ccid = f.t + konst
			}
			vm.encUpdates++
			vm.cycles += encCyc
		}
		vm.allocs++
		vm.allocsByFn[byFn]++
		var ptr uint64
		var aerr error
		if realloc {
			ptr, aerr = vm.backend.Realloc(ccid, ptrU, sizeU)
		} else {
			ptr, aerr = vm.backend.Alloc(allocFn, ccid, nU, sizeU, alignU)
		}
		if aerr != nil {
			m.trap = vm.crash(aerr)
			return stepFault
		}
		f.regs[dst].setU(ptr)
		vm.ics[icIdx].allocs++
		if probe {
			vm.noteAlloc(rec, ccid)
		}
		return next
	}
}

// buildBinBr fuses a binary op into the conditional branch consuming
// its result — the loop-head superinstruction (e.g. `i < n` feeding
// the while branch): one dispatch instead of two per iteration. The
// fusion mark guarantees the branch carries no tick.
func (fc *fnCompiler) buildBinBr(bin, br *instr, next int32) closStep {
	dst, bop := bin.dst, bin.bop
	a, b := fc.ref(bin.a), fc.ref(bin.b)
	tick1 := bin.tick
	elseIdx := fc.stepAt(br.aux)
	cu := fc.shape.checkUse
	aConst, aku, aIdx := a.k != nil, a.ku, a.idx
	bConst, bku, bIdx := b.k != nil, b.ku, b.idx

	// gen is the materialized path: boxed or undefined operands,
	// shadow-plane propagation through setBin.
	gen := func(m *Machine, f *frameV) int32 {
		av := m.fetch(f, &a)
		if av == nil {
			return stepFault
		}
		bv := m.fetch(f, &b)
		if bv == nil {
			return stepFault
		}
		r, err := binScalar(bop, av.Uint(), bv.Uint())
		if err != nil {
			m.trap = err
			return stepFault
		}
		dreg := &f.regs[dst]
		dreg.setBin(r, av, bv)
		if cu {
			m.vm.backend.CheckUse(dreg.val, UseControlFlow, m.vm.v)
		}
		// setBin stored r as the scalar result, so branch on it directly.
		if dreg.val.Uint() == 0 {
			return elseIdx
		}
		return next
	}

	return func(m *Machine, f *frameV) int32 {
		if tick1 && !m.mtick() {
			return stepFault
		}
		var au, bu uint64
		if aConst {
			au = aku
		} else if ra := &f.regs[aIdx]; ra.uok && ra.def {
			au = ra.u
		} else {
			return gen(m, f)
		}
		if bConst {
			bu = bku
		} else if rb := &f.regs[bIdx]; rb.uok && rb.def {
			bu = rb.u
		} else {
			return gen(m, f)
		}
		r, err := binScalar(bop, au, bu)
		if err != nil {
			m.trap = err
			return stepFault
		}
		dreg := &f.regs[dst]
		dreg.setU(r)
		if cu {
			dreg.materialize()
			m.vm.backend.CheckUse(dreg.val, UseControlFlow, m.vm.v)
		}
		if r == 0 {
			return elseIdx
		}
		return next
	}
}

// buildBinJmp fuses a binary op into the unconditional jump following
// it — the loop-latch superinstruction (`i = i + 1` feeding the
// back-edge): one dispatch per iteration instead of two. The fusion
// mark guarantees the jump carries no tick.
func (fc *fnCompiler) buildBinJmp(bin, jmp *instr) closStep {
	dst, bop := bin.dst, bin.bop
	a, b := fc.ref(bin.a), fc.ref(bin.b)
	tick1 := bin.tick
	tgt := fc.stepAt(jmp.aux)
	aConst, aku, aIdx := a.k != nil, a.ku, a.idx
	bConst, bku, bIdx := b.k != nil, b.ku, b.idx

	gen := func(m *Machine, f *frameV) int32 {
		av := m.fetch(f, &a)
		if av == nil {
			return stepFault
		}
		bv := m.fetch(f, &b)
		if bv == nil {
			return stepFault
		}
		r, err := binScalar(bop, av.Uint(), bv.Uint())
		if err != nil {
			m.trap = err
			return stepFault
		}
		f.regs[dst].setBin(r, av, bv)
		return tgt
	}

	return func(m *Machine, f *frameV) int32 {
		if tick1 && !m.mtick() {
			return stepFault
		}
		var au, bu uint64
		if aConst {
			au = aku
		} else if ra := &f.regs[aIdx]; ra.uok && ra.def {
			au = ra.u
		} else {
			return gen(m, f)
		}
		if bConst {
			bu = bku
		} else if rb := &f.regs[bIdx]; rb.uok && rb.def {
			bu = rb.u
		} else {
			return gen(m, f)
		}
		r, err := binScalar(bop, au, bu)
		if err != nil {
			m.trap = err
			return stepFault
		}
		f.regs[dst].setU(r)
		return tgt
	}
}

// buildBinBin fuses two consecutive binary ops (chained arithmetic:
// the second may consume the first's destination) into one dispatch.
func (fc *fnCompiler) buildBinBin(b1, b2 *instr, next int32) closStep {
	dst1, bop1 := b1.dst, b1.bop
	a1, c1 := fc.ref(b1.a), fc.ref(b1.b)
	dst2, bop2 := b2.dst, b2.bop
	a2, c2 := fc.ref(b2.a), fc.ref(b2.b)
	tick1, tick2 := b1.tick, b2.tick
	a1Const, a1ku, a1Idx := a1.k != nil, a1.ku, a1.idx
	c1Const, c1ku, c1Idx := c1.k != nil, c1.ku, c1.idx
	a2Const, a2ku, a2Idx := a2.k != nil, a2.ku, a2.idx
	c2Const, c2ku, c2Idx := c2.k != nil, c2.ku, c2.idx

	return func(m *Machine, f *frameV) int32 {
		if tick1 && !m.mtick() {
			return stepFault
		}
		// First op: inline unboxed path, binInto for everything else.
		var au, bu uint64
		fast := true
		if a1Const {
			au = a1ku
		} else if ra := &f.regs[a1Idx]; ra.uok && ra.def {
			au = ra.u
		} else {
			fast = false
		}
		if fast {
			if c1Const {
				bu = c1ku
			} else if rb := &f.regs[c1Idx]; rb.uok && rb.def {
				bu = rb.u
			} else {
				fast = false
			}
		}
		if fast {
			r, err := binScalar(bop1, au, bu)
			if err != nil {
				m.trap = err
				return stepFault
			}
			f.regs[dst1].setU(r)
		} else if !binInto(m, f, bop1, &a1, &c1, dst1) {
			return stepFault
		}
		if tick2 && !m.mtick() {
			return stepFault
		}
		// Second op (may consume dst1, which the fast path left unboxed).
		fast = true
		if a2Const {
			au = a2ku
		} else if ra := &f.regs[a2Idx]; ra.uok && ra.def {
			au = ra.u
		} else {
			fast = false
		}
		if fast {
			if c2Const {
				bu = c2ku
			} else if rb := &f.regs[c2Idx]; rb.uok && rb.def {
				bu = rb.u
			} else {
				fast = false
			}
		}
		if fast {
			r, err := binScalar(bop2, au, bu)
			if err != nil {
				m.trap = err
				return stepFault
			}
			f.regs[dst2].setU(r)
			return next
		}
		if !binInto(m, f, bop2, &a2, &c2, dst2) {
			return stepFault
		}
		return next
	}
}

// binInto executes one binary op into dst, preferring the unboxed
// path and falling back to the materialized setBin path when an
// operand carries shadow planes or an odd width. false means a fault
// (undefined variable or arithmetic error) is staged in trap.
func binInto(m *Machine, f *frameV, bop BinOp, a, b *opref, dst int32) bool {
	if au, s := m.fetchScalar(f, a); s == scalarOK {
		bu, s2 := m.fetchScalar(f, b)
		if s2 == scalarOK {
			r, err := binScalar(bop, au, bu)
			if err != nil {
				m.trap = err
				return false
			}
			f.regs[dst].setU(r)
			return true
		}
		if s2 == scalarFault {
			return false
		}
	} else if s == scalarFault {
		return false
	}
	av := m.fetch(f, a)
	if av == nil {
		return false
	}
	bv := m.fetch(f, b)
	if bv == nil {
		return false
	}
	r, err := binScalar(bop, av.Uint(), bv.Uint())
	if err != nil {
		m.trap = err
		return false
	}
	f.regs[dst].setBin(r, av, bv)
	return true
}
