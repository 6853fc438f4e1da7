package prog

// The compiled engine (EngineCompiled, the default). A Machine
// interprets the flat bytecode compile produces: one switch over the
// opcodes per activation (interpFrame), with calls recursing through
// callSite. Everything static is decided once, at compile or
// construction time, so the switch does little per instruction:
//
//   - operands: registers and interned constants share one operand
//     slot, and clean scalars flow unboxed through Machine.scalarOf
//     and reg.setU, so arithmetic, branches and address formation
//     touch no byte buffers;
//   - encoding.SiteUpdate deltas: each instrumented call/alloc site's
//     V-update is plain integer arithmetic (V = 3*t + c or V = t + c),
//     precompiled by compile, exactly the instruction an
//     instrumentation pass would embed in a real binary;
//   - backend shape: CheckUse elision (HeapBackend.ObservesUse) is
//     decided once per Machine, at construction, and every load reuses
//     its destination's buffers (HeapBackend.LoadInto);
//   - superinstructions: a compare feeding a conditional branch and a
//     binary op feeding the loop-latch jump, both marked by compile,
//     run in one dispatch when their operands are clean scalars.
//
// Anything else (shadow planes, undefined operands, a CheckUse that
// must see a Value) takes the boxed rd/setBin path, instruction by
// instruction.
//
// Everything observable through Run is bit-identical to the
// tree-walker — outputs, return values, faults, error text and order,
// statistics, and cycle accounting; the differential suites enforce
// it. A Machine never writes its bytecode, so one Prepared's bytecode
// backs any number of Machines (fleet workers, interpreter threads).

import (
	"errors"
	"fmt"
)

var _ runner = (*Machine)(nil)

// setSchedHook implements the runner contract (see RunThreads). mtick
// leaves its inlined prefix exactly at the hook's boundaries and the
// step limit (see armTick), so quantum boundaries are identical to the
// tree-walker's per-statement check.
func (m *Machine) setSchedHook(every uint64, fn func()) {
	m.yieldEvery = every
	m.yield = fn
	m.armTick()
}

// armTick sets tickSlowAt to the last step mtick may count on its
// inlined prefix: the step before the next hook boundary (the next
// multiple of yieldEvery above steps) or maxSteps, whichever comes
// first. It is recomputed at run start, whenever the hook changes, and
// after every slow tick, so between boundaries a hooked Machine runs
// at unhooked speed.
func (m *Machine) armTick() {
	m.tickSlowAt = m.maxSteps
	if m.yield == nil || m.steps >= m.maxSteps {
		return
	}
	// Steps to the next boundary, less one; no overflow for any every.
	if gap := m.yieldEvery - 1 - m.steps%m.yieldEvery; gap < m.maxSteps-m.steps {
		m.tickSlowAt = m.steps + gap
	}
}

// Run executes the program on the given input; semantics are
// identical to Interp.Run. The Result is fresh, but its Returned
// buffers are owned by the Machine and are invalidated by the next run.
func (m *Machine) Run(input []byte) (*Result, error) {
	res := &Result{}
	if err := m.run(res, input); err != nil {
		return nil, err
	}
	return res, nil
}

func (m *Machine) run(res *Result, input []byte) error {
	m.input = input
	m.inPos = 0
	m.output = res.Output[:0]
	m.v = 0
	m.steps = 0
	m.cycles = 0
	m.encUpdates = 0
	m.allocs = 0
	m.allocsByFn = [8]uint64{}
	m.frees = 0
	m.fault = nil
	for i := range m.globals {
		m.globals[i].def = false
	}
	m.nframes = 0
	m.armTick()
	res.Returned = Value{}
	startCycles := m.backend.Cycles()

	rv, err := m.interpFrame(m.pushFrame(0))
	if err == nil {
		m.setReturned(res, rv)
	}
	// mtick counts steps without charging the per-statement cycle cost;
	// settle it in one multiply so cycle totals match the tree-walker's
	// exactly.
	m.cycles += CycStmt * m.steps
	res.Output = m.output
	res.Steps = m.steps
	res.EncUpdates = m.encUpdates
	res.Allocs = m.allocs
	res.AllocsByFn = m.allocsByFn
	res.Frees = m.frees
	res.InterpCycles = m.cycles
	res.Cycles = m.cycles + (m.backend.Cycles() - startCycles)
	res.Fault = nil
	if err != nil {
		if errors.Is(err, errCrashed) {
			res.Fault = m.fault
			return nil
		}
		return err
	}
	return nil
}

// mtick is the per-statement bookkeeping: step count, step limit, and
// the cooperative-scheduling hook. It reports false when the step
// limit is hit. It does NOT charge CycStmt here; run() charges
// CycStmt*steps once at the end, which is arithmetically identical and
// keeps this prefix inside the inlining budget.
func (m *Machine) mtick() bool {
	m.steps++
	if m.steps > m.tickSlowAt {
		return m.mtickSlow()
	}
	return true
}

// mtickSlow keeps the step-limit check and the scheduling hook out of
// mtick's inlinable hot prefix. It runs only on the step after
// tickSlowAt: a hook boundary or the step past the limit. The hook may
// reinstall or clear itself, so the next stop is armed after it runs.
//
//go:noinline
func (m *Machine) mtickSlow() bool {
	if m.steps > m.maxSteps {
		return false
	}
	if m.yield != nil && m.steps%m.yieldEvery == 0 {
		m.yield()
	}
	m.armTick()
	return true
}

//go:noinline
func (m *Machine) stepLimit() error {
	return fmt.Errorf("prog %s: %w %d exceeded", m.c.p.Name, ErrStepLimit, m.maxSteps)
}

// callSite executes one call site from frame f — argument fetch
// through return-value delivery — running the callee's activation
// recursively. The sequencing (arg errors, arity, depth, V update,
// cycle charges, prologue cost, V restore) mirrors the tree-walker's
// call exactly.
func (m *Machine) callSite(rec *callRec, f *frameV) error {
	callee := &m.c.funcs[rec.fnIdx]
	opnds := m.c.argsOf(rec)
	if cap(m.args) < len(opnds) {
		m.args = make([]*Value, len(opnds))
	}
	args := m.args[:len(opnds)]
	for i, o := range opnds {
		v, err := m.rd(f, o)
		if err != nil {
			return err
		}
		args[i] = v
	}
	if len(args) != int(callee.nparams) {
		return fmt.Errorf("prog %s: call to %s with %d args, want %d",
			m.c.p.Name, callee.name, len(args), int(callee.nparams))
	}
	if m.nframes > maxDepth {
		return fmt.Errorf("prog %s: call depth limit %d exceeded", m.c.p.Name, maxDepth)
	}
	if rec.upd.Instrumented {
		m.v = rec.upd.Apply(f.t)
		m.encUpdates++
		m.cycles += m.c.encCycles
	}
	m.cycles += CycCall
	nf := m.pushFrame(rec.fnIdx)
	for i := int32(0); i < callee.nparams; i++ {
		nf.regs[i].set(args[i])
	}
	if callee.prologue {
		m.cycles += CycEncPrologue
	}
	rv, err := m.interpFrame(nf)
	if err != nil {
		return err
	}
	m.nframes--
	// Restore discipline: V returns to the caller's context.
	m.v = f.t
	if rec.dst != opndNone {
		if rv == nil {
			rv = &zeroValue
		}
		f.regs[rec.dst].set(rv)
	}
	return nil
}

// interpFrame runs one activation of frame f's function from the flat
// bytecode: one switch over the opcodes confined to a single frame.
// Calls recurse through callSite, and returns unwind to the caller
// activation. Clean scalars stay unboxed (scalarOf/setU), and an opBin
// marked fuseBr or fuseJump dispatches its successor too when its
// operands are clean.
func (m *Machine) interpFrame(f *frameV) (*Value, error) {
	code := m.c.code
	pc := m.c.funcs[f.fn].entry
	for {
		ins := &code[pc]
		if ins.tick && !m.mtick() {
			return nil, m.stepLimit()
		}
		switch ins.op {
		case opNop:
			// Costs the base step only.

		case opCheckVar:
			if !f.regs[ins.a].def {
				return nil, m.undefVar(m.c.funcs[f.fn].regNames[ins.a])
			}

		case opLoadK:
			f.regs[ins.dst].setU(m.c.constU[^ins.a])

		case opMove:
			if u, ok := m.scalarOf(f, ins.a); ok {
				f.regs[ins.dst].setU(u)
				break
			}
			src, err := m.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			f.regs[ins.dst].set(src)

		case opBin:
			au, aok := m.scalarOf(f, ins.a)
			bu, bok := m.scalarOf(f, ins.b)
			if !aok || !bok {
				// Shadow planes, other widths or an undefined operand:
				// the materialized path, with rd's errors in order and
				// setBin's shadow propagation. The pair runs unfused.
				av, err := m.rd(f, ins.a)
				if err != nil {
					return nil, err
				}
				bv, err := m.rd(f, ins.b)
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
			if ins.fuse == fuseBr && !m.checkUse {
				if r == 0 {
					pc = code[pc+1].aux
				} else {
					pc += 2
				}
				continue
			}

		case opInputLen:
			f.regs[ins.dst].setU(uint64(len(m.input)))

		case opInputRem:
			f.regs[ins.dst].setU(uint64(len(m.input) - m.inPos))

		case opGlobalGet:
			g := &m.globals[ins.aux]
			if g.def {
				f.regs[ins.dst].set(&g.val)
			} else {
				f.regs[ins.dst].setScalar(0)
			}

		case opGlobalSet:
			src, err := m.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			m.globals[ins.aux].set(src)

		case opJump:
			pc = ins.aux
			continue

		case opBr:
			var c uint64
			if !m.checkUse {
				u, err := m.uintOf(f, ins.a)
				if err != nil {
					return nil, err
				}
				c = u
			} else {
				cv, err := m.rd(f, ins.a)
				if err != nil {
					return nil, err
				}
				m.backend.CheckUse(*cv, UseControlFlow, m.v)
				c = cv.Uint()
			}
			if c == 0 {
				pc = ins.aux
				continue
			}

		case opCall:
			if err := m.callSite(&m.c.calls[ins.aux], f); err != nil {
				return nil, err
			}

		case opRet, opRetVoid:
			if ins.op == opRet {
				v, err := m.rd(f, ins.a)
				if err != nil {
					return nil, err
				}
				return v, nil
			}
			return nil, nil

		case opAlloc, opRealloc:
			rec := &m.c.allocs[ins.aux]
			// Every operand is consumed as an integer, and no use point
			// sees one, so all of them take the unboxed read.
			var ptrOp uint64
			var err error
			if ins.op == opRealloc {
				if ptrOp, err = m.uintOf(f, rec.ptr); err != nil {
					return nil, err
				}
			}
			size, err := m.uintOf(f, rec.size)
			if err != nil {
				return nil, err
			}
			nv, err := m.uintOf(f, rec.n)
			if err != nil {
				return nil, err
			}
			al, err := m.uintOf(f, rec.align)
			if err != nil {
				return nil, err
			}
			ccid := m.v
			switch {
			case rec.ccid != opndNone:
				if ccid, err = m.uintOf(f, rec.ccid); err != nil {
					return nil, err
				}
				m.encUpdates++
				m.cycles += CycEncUpdatePCC
			case rec.upd.Instrumented:
				ccid = rec.upd.Apply(f.t)
				m.encUpdates++
				m.cycles += m.c.encCycles
			}
			m.allocs++
			m.allocsByFn[rec.fn]++
			var ptr uint64
			var aerr error
			if ins.op == opRealloc {
				ptr, aerr = m.backend.Realloc(ccid, ptrOp, size)
			} else {
				ptr, aerr = m.backend.Alloc(rec.fn, ccid, nv, size, al)
			}
			if aerr != nil {
				return nil, m.crash(aerr)
			}
			f.regs[rec.dst].setU(ptr)

		case opFree:
			var ptr uint64
			if !m.checkUse {
				u, err := m.uintOf(f, ins.a)
				if err != nil {
					return nil, err
				}
				ptr = u
			} else {
				pv, err := m.rd(f, ins.a)
				if err != nil {
					return nil, err
				}
				m.backend.CheckUse(*pv, UseAddress, m.v)
				ptr = pv.Uint()
			}
			m.frees++
			if ferr := m.backend.Free(ptr, m.v); ferr != nil {
				return nil, m.crash(ferr)
			}

		case opLoad:
			addr, err := m.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			n, err := m.uintOf(f, ins.c)
			if err != nil {
				return nil, err
			}
			if lerr := m.loadIntoReg(&f.regs[ins.dst], addr, n); lerr != nil {
				return nil, m.crash(lerr)
			}

		case opStore:
			addr, err := m.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			src, err := m.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			n := uint64(8)
			if ins.dst != opndNone {
				if n, err = m.uintOf(f, ins.dst); err != nil {
					return nil, err
				}
				if n > 8 {
					n = 8
				}
			}
			if serr := m.backend.Store(addr, src.View(0, int(n)), m.v); serr != nil {
				return nil, m.crash(serr)
			}

		case opStoreVar:
			addr, err := m.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			src, err := m.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if serr := m.backend.Store(addr, *src, m.v); serr != nil {
				return nil, m.crash(serr)
			}

		case opStoreBytes:
			addr, err := m.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			if serr := m.backend.Store(addr, m.c.datas[ins.aux], m.v); serr != nil {
				return nil, m.crash(serr)
			}

		case opMemcpy:
			dst, err := m.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			src, err := m.rd(f, ins.b)
			if err != nil {
				return nil, err
			}
			nv, err := m.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if m.checkUse {
				m.backend.CheckUse(*dst, UseAddress, m.v)
				m.backend.CheckUse(*src, UseAddress, m.v)
			}
			if merr := m.backend.Memcpy(dst.Uint(), src.Uint(), nv.Uint(), m.v); merr != nil {
				return nil, m.crash(merr)
			}

		case opMemset:
			dst, err := m.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			bv, err := m.rd(f, ins.b)
			if err != nil {
				return nil, err
			}
			nv, err := m.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if m.checkUse {
				m.backend.CheckUse(*dst, UseAddress, m.v)
			}
			if merr := m.backend.Memset(dst.Uint(), byte(bv.Uint()), nv.Uint(), m.v); merr != nil {
				return nil, m.crash(merr)
			}

		case opReadInput:
			nv, err := m.rd(f, ins.a)
			if err != nil {
				return nil, err
			}
			// Clamp in uint64 space (see the tree-walker's ReadInput).
			take := len(m.input) - m.inPos
			if nu := nv.Uint(); nu < uint64(take) {
				take = int(nu)
			}
			r := &f.regs[ins.dst]
			if cap(r.val.Bytes) < take {
				r.val.Bytes = make([]byte, take)
			} else {
				r.val.Bytes = r.val.Bytes[:take]
			}
			copy(r.val.Bytes, m.input[m.inPos:m.inPos+take])
			m.inPos += take
			r.val.Valid = nil
			r.val.Origin = nil
			r.uok = false
			r.def = true

		case opOutput:
			addr, err := m.effAddr(f, ins.a, ins.b)
			if err != nil {
				return nil, err
			}
			nv, err := m.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if lerr := m.backend.LoadInto(&m.scratch, addr, nv.Uint(), m.v); lerr != nil {
				return nil, m.crash(lerr)
			}
			if m.checkUse {
				m.backend.CheckUse(m.scratch, UseOutput, m.v)
			}
			m.output = append(m.output, m.scratch.Bytes...)

		case opOutputVar:
			src, err := m.rd(f, ins.c)
			if err != nil {
				return nil, err
			}
			if m.checkUse {
				m.backend.CheckUse(*src, UseOutput, m.v)
			}
			m.output = append(m.output, src.Bytes...)

		default:
			return nil, fmt.Errorf("prog %s: unknown opcode %d", m.c.p.Name, ins.op)
		}
		pc++
	}
}
