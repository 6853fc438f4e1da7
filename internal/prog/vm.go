package prog

// The compiled engine's Machine and its mutable state. A Machine
// executes the flat instruction stream produced by compile
// (compile.go; the execution loop is in jit.go) with a register file
// per frame and a frame free list, so steady-state execution allocates
// only the Result and its output: registers own their Value buffers and
// every write reuses capacity, frames are recycled by depth, and the
// returned value is staged in Machine-owned buffers.
//
// Encoding updates are resolved once, at compile time: each call/alloc
// site's V-update (the delta an instrumentation pass would embed in the
// binary) becomes a SiteUpdate constant, replacing the per-update plan
// query the tree-walker pays; the arithmetic itself is unchanged, so
// CCIDs are bit-identical. The patch lookup stays where the paper puts
// it: one O(1) probe per allocation, inside the defended backend.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// reg is one register: a Value the register owns, a definedness
// flag, and spare shadow-plane capacity kept across scalar writes
// (setScalar nils val.Valid/val.Origin, so their buffers are parked
// here for the next shadowed write to reuse).
//
// u/uok are the unboxed-scalar cache: when uok is set, the register's
// authoritative content is the shadow-free 8-byte scalar u, and val is
// stale. The Machine sets uok (reg.setU) for clean scalar results;
// every byte-level write clears it, and every reader that hands out
// *Value (Machine.rd) materializes first. Integer-only readers
// (Machine.scalarOf) take u without materializing.
type reg struct {
	val       Value
	def       bool
	u         uint64
	uok       bool
	validCap  []byte
	originCap []uint32
}

// setScalar writes a fully-valid 8-byte scalar, reusing capacity.
func (r *reg) setScalar(v uint64) {
	b := r.val.Bytes
	if cap(b) < 8 {
		b = make([]byte, 8)
	} else {
		b = b[:8]
	}
	binary.LittleEndian.PutUint64(b, v)
	r.val.Bytes = b
	r.val.Valid = nil
	r.val.Origin = nil
	r.uok = false
	r.def = true
}

// setU caches a shadow-free 8-byte scalar without materializing its
// byte representation. Scalar flow stays in uint64s; rd materializes
// on the first byte-level read.
func (r *reg) setU(v uint64) {
	r.u = v
	r.uok = true
	r.def = true
}

// scalar reports a defined register's content when it is a
// shadow-free 8-byte scalar: the cached u, or val's decoded bytes.
func (r *reg) scalar() (uint64, bool) {
	if r.uok {
		return r.u, r.def
	}
	if r.def && r.val.Valid == nil && r.val.Origin == nil && len(r.val.Bytes) == 8 {
		return binary.LittleEndian.Uint64(r.val.Bytes), true
	}
	return 0, false
}

// materialize writes the cached scalar through to val, restoring the
// invariant that val is authoritative (setScalar clears uok).
func (r *reg) materialize() {
	r.setScalar(r.u)
}

// set deep-copies src into the register. Safe when src aliases the
// register's own value (self-move).
func (r *reg) set(src *Value) {
	n := len(src.Bytes)
	if cap(r.val.Bytes) < n {
		r.val.Bytes = make([]byte, n)
	} else {
		r.val.Bytes = r.val.Bytes[:n]
	}
	copy(r.val.Bytes, src.Bytes)
	if src.Valid != nil {
		nv := len(src.Valid)
		if cap(r.validCap) < nv {
			r.validCap = make([]byte, nv)
		} else {
			r.validCap = r.validCap[:nv]
		}
		copy(r.validCap, src.Valid)
		r.val.Valid = r.validCap
	} else {
		r.val.Valid = nil
	}
	if src.Origin != nil {
		no := len(src.Origin)
		if cap(r.originCap) < no {
			r.originCap = make([]uint32, no)
		} else {
			r.originCap = r.originCap[:no]
		}
		copy(r.originCap, src.Origin)
		r.val.Origin = r.originCap
	} else {
		r.val.Origin = nil
	}
	r.uok = false
	r.def = true
}

// setBin writes a binary-operation result with combineScalar's exact
// shadow semantics, allocation-free. Operand shadow is read before the
// register is touched, so dst may alias an operand.
func (r *reg) setBin(result uint64, a, b *Value) {
	if a.Valid == nil && b.Valid == nil {
		// Both operands carry no shadow planes: scalarShadow would
		// report them fully valid, so the result is a clean scalar.
		r.setScalar(result)
		return
	}
	av, ao := a.scalarShadow()
	bv, bo := b.scalarShadow()
	r.setScalar(result)
	if av && bv {
		return
	}
	origin := ao
	if av {
		origin = bo
	}
	// Mirror invalidScalar: 8 zero V-mask bytes, and an origin plane
	// only when there is an origin to carry.
	if cap(r.validCap) < 8 {
		r.validCap = make([]byte, 8)
	} else {
		r.validCap = r.validCap[:8]
		for i := range r.validCap {
			r.validCap[i] = 0
		}
	}
	r.val.Valid = r.validCap
	if origin != 0 {
		if cap(r.originCap) < 8 {
			r.originCap = make([]uint32, 8)
		} else {
			r.originCap = r.originCap[:8]
		}
		for i := range r.originCap {
			r.originCap[i] = origin
		}
		r.val.Origin = r.originCap
	}
}

// frameV is one recycled activation record: the register file keeps
// its buffers across calls, so re-entering a function at the same
// depth touches no allocator.
type frameV struct {
	regs []reg
	fn   int32
	t    uint64 // V at the function prologue (save/restore discipline)
}

// Machine is the compiled engine: one executor of a shared, immutable
// bytecode, holding all of the mutable execution state. It is
// single-goroutine; many Machines share one bytecode through their
// Prepared.
type Machine struct {
	c        *bytecode
	backend  HeapBackend
	checkUse bool // false only when the backend disclaims use points
	maxSteps uint64
	maxDepth int

	// Per-run state.
	input      []byte
	inPos      int
	output     []byte
	v          uint64 // the thread-local CCID variable V
	steps      uint64
	cycles     uint64
	encUpdates uint64
	allocs     uint64
	allocsByFn [8]uint64
	frees      uint64
	fault      error

	frames  []*frameV // frame free list; frames[:nframes] are live
	nframes int
	globals []reg
	scratch Value // transient loads (Output)
	args    []*Value

	// Result.Returned staging capacity, reused across runs.
	retBytes  []byte
	retValid  []byte
	retOrigin []uint32

	// Cooperative scheduling hook (RunThreads).
	yield      func()
	yieldEvery uint64

	// tickSlowAt folds the step-limit and scheduling-hook checks into
	// one compare on mtick's hot path: the step before the next hook
	// boundary, or maxSteps when that comes first (see armTick).
	tickSlowAt uint64
}

// newMachine binds a compiled program to cfg.Backend. cfg.Coder must
// be the coder c was compiled with (Prepare guarantees it).
func newMachine(c *bytecode, cfg Config) (*Machine, error) {
	if cfg.Backend == nil {
		return nil, errors.New("prog: Config.Backend is required")
	}
	m := &Machine{
		c:        c,
		backend:  cfg.Backend,
		maxSteps: cfg.MaxSteps,
		maxDepth: cfg.MaxDepth,
		checkUse: cfg.Backend.ObservesUse(),
		globals:  make([]reg, len(c.globalNames)),
	}
	if m.maxSteps == 0 {
		m.maxSteps = DefaultMaxSteps
	}
	if m.maxDepth == 0 {
		m.maxDepth = DefaultMaxDepth
	}
	m.tickSlowAt = m.maxSteps
	return m, nil
}

// crash records a fault and returns the crash sentinel (shared with
// the tree-walker).
func (m *Machine) crash(err error) error {
	m.fault = err
	return errCrashed
}

func (m *Machine) undefVar(name string) error {
	return fmt.Errorf("prog %s: undefined variable %q", m.c.p.Name, name)
}

// rd resolves an operand: a register (definedness-checked, with the
// tree-walker's exact error) or an interned constant. Error
// construction is outlined to rdUndef so rd itself stays inlinable.
func (m *Machine) rd(f *frameV, o int32) (*Value, error) {
	if o >= 0 {
		r := &f.regs[o]
		if !r.def {
			return nil, m.rdUndef(f, o)
		}
		if r.uok {
			r.materialize()
		}
		return &r.val, nil
	}
	return &m.c.consts[^o], nil
}

//go:noinline
func (m *Machine) rdUndef(f *frameV, o int32) error {
	return m.undefVar(m.c.funcs[f.fn].regNames[o])
}

// scalarOf is the unboxed read of an operand: a constant's
// scalar, a register's cached setU scalar, or the decoded bytes of a
// defined register holding a shadow-free 8-byte scalar. It never
// materializes or reports errors: false (undefined registers, shadow
// planes, other widths) sends the caller to rd, whose error text and
// order are the tree-walker's.
func (m *Machine) scalarOf(f *frameV, o int32) (uint64, bool) {
	if o < 0 {
		return m.c.constU[^o], true
	}
	return f.regs[o].scalar()
}

// uintOf resolves an operand consumed only as an integer (sizes,
// counts, addresses no CheckUse sees): scalarOf's fast read, else rd.
func (m *Machine) uintOf(f *frameV, o int32) (uint64, error) {
	if u, ok := m.scalarOf(f, o); ok {
		return u, nil
	}
	v, err := m.rd(f, o)
	if err != nil {
		return 0, err
	}
	return v.Uint(), nil
}

// effAddr forms base+off with the address use-point checks, mirroring
// the tree-walker's evalAddr (one check when off is absent). Without
// use-point checks the address operands are plain integers.
func (m *Machine) effAddr(f *frameV, a, b int32) (uint64, error) {
	if !m.checkUse {
		base, err := m.uintOf(f, a)
		if err != nil || b == opndNone {
			return base, err
		}
		off, err := m.uintOf(f, b)
		return base + off, err
	}
	bv, err := m.rd(f, a)
	if err != nil {
		return 0, err
	}
	m.backend.CheckUse(*bv, UseAddress, m.v)
	if b == opndNone {
		return bv.Uint(), nil
	}
	ov, err := m.rd(f, b)
	if err != nil {
		return 0, err
	}
	m.backend.CheckUse(*ov, UseAddress, m.v)
	return bv.Uint() + ov.Uint(), nil
}

// pushFrame activates a recycled (or new) frame for funcs[fnIdx].
func (m *Machine) pushFrame(fnIdx int32) *frameV {
	m.nframes++
	if m.nframes > len(m.frames) {
		m.frames = append(m.frames, &frameV{})
	}
	nf := m.frames[m.nframes-1]
	nregs := int(m.c.funcs[fnIdx].nregs)
	if cap(nf.regs) < nregs {
		nf.regs = make([]reg, nregs)
	} else {
		nf.regs = nf.regs[:nregs]
		for i := range nf.regs {
			nf.regs[i].def = false
		}
	}
	nf.fn = fnIdx
	nf.t = m.v
	return nf
}

// loadIntoReg bulk-loads into a register's owned buffers, lending the
// register's parked shadow capacity to the backend and harvesting any
// growth back.
func (m *Machine) loadIntoReg(r *reg, addr, n uint64) error {
	r.val.Valid = r.validCap
	r.val.Origin = r.originCap
	err := m.backend.LoadInto(&r.val, addr, n, m.v)
	if r.val.Valid != nil {
		r.validCap = r.val.Valid
	}
	if r.val.Origin != nil {
		r.originCap = r.val.Origin
	}
	if err != nil {
		return err
	}
	r.uok = false
	r.def = true
	return nil
}

// zeroValue backs void results (a call with a Dst binds Value{}).
var zeroValue Value

// setReturned stages the entry function's return value into the
// Result, reusing the state's staging capacity (rv may point into a
// register about to be recycled by the next run).
func (m *Machine) setReturned(res *Result, rv *Value) {
	if rv == nil {
		res.Returned = Value{}
		return
	}
	m.retBytes = growValueBytes(m.retBytes, uint64(len(rv.Bytes)))
	copy(m.retBytes, rv.Bytes)
	out := Value{Bytes: m.retBytes}
	if rv.Valid != nil {
		m.retValid = growValueBytes(m.retValid, uint64(len(rv.Valid)))
		copy(m.retValid, rv.Valid)
		out.Valid = m.retValid
	}
	if rv.Origin != nil {
		n := len(rv.Origin)
		if cap(m.retOrigin) < n {
			m.retOrigin = make([]uint32, n)
		} else {
			m.retOrigin = m.retOrigin[:n]
		}
		copy(m.retOrigin, rv.Origin)
		out.Origin = m.retOrigin
	}
	res.Returned = out
}
