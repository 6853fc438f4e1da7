package prog

// The bytecode engine's mutable state. A Machine (jit.go) executes the
// flat instruction stream produced by compile (compile.go) with a
// register file per frame and a frame free list, so steady-state
// execution allocates nothing: registers own their Value buffers and
// every write reuses capacity, frames are recycled by depth, and
// RunReuse recycles the Result's buffers too. Both of the Machine's
// tiers (the cold bytecode interpreter and the closure code) read and
// write this one state.
//
// Two per-site caches avoid repeated lookups the tree-walker pays on
// every execution:
//
//   - encoding updates: each call/alloc site's V-update (the delta an
//     instrumentation pass would embed in the binary) is resolved to a
//     SiteUpdate constant at compile time, replacing the per-update
//     plan query; the arithmetic itself is unchanged, so CCIDs are
//     bit-identical;
//   - patch verdicts: when the backend exposes PatchProber (the
//     defended backend does), each allocation site caches its last
//     (generation, ccid) -> patched answer, revalidated against the
//     table generation so fleet recycles invalidate it naturally. The
//     cache feeds SiteProfile only; the allocation path's own lookups
//     and statistics are untouched, keeping defense stats identical.

import (
	"encoding/binary"
	"fmt"

	"heaptherapy/internal/callgraph"
	"heaptherapy/internal/heapsim"
)

// reg is one register: a Value the register owns, a definedness
// flag, and spare shadow-plane capacity kept across scalar writes
// (setScalar nils val.Valid/val.Origin, so their buffers are parked
// here for the next shadowed write to reuse).
//
// u/uok are the unboxed-scalar cache: when uok is set, the register's
// authoritative content is the shadow-free 8-byte scalar u, and val is
// stale. Both Machine tiers set uok (reg.setU) for clean scalar
// results; every byte-level write clears it, and every reader that
// hands out *Value (rd, Machine.fetch) materializes first, so both
// tiers observe bit-identical Values. Integer-only readers
// (vmState.scalarOf, Machine.fetchScalar) take u without materializing.
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
// byte representation. Compiled-tier scalar flow stays in uint64s;
// rd/fetch materialize on the first byte-level read.
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

// siteIC is the per-site patch-verdict inline cache plus the site's
// allocation profile counters.
type siteIC struct {
	gen           uint64
	ccid          uint64
	valid         bool
	patched       bool
	allocs        uint64
	patchedAllocs uint64
}

// SiteStats is one allocation site's profile, built from the verdict
// inline caches: how many allocations it executed and how many hit a
// defense patch. Counters accumulate across runs of one Machine.
type SiteStats struct {
	Site          callgraph.SiteID
	Fn            heapsim.AllocFn
	Allocs        uint64
	PatchedAllocs uint64
}

// vmState is one Machine's mutable execution state over a shared,
// immutable bytecode.
type vmState struct {
	c        *bytecode
	backend  HeapBackend
	bulk     BulkLoader  // non-nil when backend supports LoadInto
	prober   PatchProber // non-nil when backend exposes patch verdicts
	checkUse bool        // false only when the backend disclaims use points
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
	ics     []siteIC
	scratch Value // transient loads (Output)
	args    []*Value

	// Result.Returned staging capacity (RunReuse's zero-alloc path).
	retBytes  []byte
	retValid  []byte
	retOrigin []uint32

	// Cooperative scheduling hook (RunThreads).
	yield      func()
	yieldEvery uint64
}

// newVMState binds a compiled program to a backend.
func newVMState(c *bytecode, cfg Config) vmState {
	vm := vmState{
		c:        c,
		backend:  cfg.Backend,
		maxSteps: cfg.MaxSteps,
		maxDepth: cfg.MaxDepth,
		checkUse: true,
		globals:  make([]reg, len(c.globalNames)),
		ics:      make([]siteIC, c.icCount),
	}
	if vm.maxSteps == 0 {
		vm.maxSteps = DefaultMaxSteps
	}
	if vm.maxDepth == 0 {
		vm.maxDepth = DefaultMaxDepth
	}
	vm.bulk, _ = cfg.Backend.(BulkLoader)
	if obs, ok := cfg.Backend.(UseObserver); ok && !obs.ObservesUse() {
		// The backend guarantees CheckUse is a no-op: elide the calls.
		vm.checkUse = false
	}
	vm.prober, _ = cfg.Backend.(PatchProber)
	return vm
}

// siteProfile reports the per-allocation-site profile accumulated by
// the verdict inline caches, in compile order.
func (vm *vmState) siteProfile() []SiteStats {
	out := make([]SiteStats, 0, len(vm.c.allocs))
	for i := range vm.c.allocs {
		rec := &vm.c.allocs[i]
		ic := &vm.ics[rec.ic]
		out = append(out, SiteStats{
			Site:          rec.siteID,
			Fn:            rec.byFn,
			Allocs:        ic.allocs,
			PatchedAllocs: ic.patchedAllocs,
		})
	}
	return out
}

// crash records a fault and returns the crash sentinel (shared with
// the tree-walker).
func (vm *vmState) crash(err error) error {
	vm.fault = err
	return errCrashed
}

func (vm *vmState) undefVar(name string) error {
	return fmt.Errorf("prog %s: undefined variable %q", vm.c.p.Name, name)
}

// rd resolves an operand: a register (definedness-checked, with the
// tree-walker's exact error) or an interned constant. Error
// construction is outlined to rdUndef so rd itself stays inlinable.
func (vm *vmState) rd(f *frameV, o int32) (*Value, error) {
	if o >= 0 {
		r := &f.regs[o]
		if !r.def {
			return nil, vm.rdUndef(f, o)
		}
		if r.uok {
			r.materialize()
		}
		return &r.val, nil
	}
	return &vm.c.consts[^o], nil
}

//go:noinline
func (vm *vmState) rdUndef(f *frameV, o int32) error {
	return vm.undefVar(vm.c.funcs[f.fn].regNames[o])
}

// scalarOf is the cold tier's unboxed read of an operand: a constant's
// scalar, a register's cached setU scalar, or the decoded bytes of a
// defined register holding a shadow-free 8-byte scalar. It never
// materializes or reports errors: false (undefined registers, shadow
// planes, other widths) sends the caller to rd, whose error text and
// order are the tree-walker's.
func (vm *vmState) scalarOf(f *frameV, o int32) (uint64, bool) {
	if o < 0 {
		return vm.c.constU[^o], true
	}
	return f.regs[o].scalar()
}

// uintOf resolves an operand consumed only as an integer (sizes,
// counts, addresses no CheckUse sees): scalarOf's fast read, else rd.
func (vm *vmState) uintOf(f *frameV, o int32) (uint64, error) {
	if u, ok := vm.scalarOf(f, o); ok {
		return u, nil
	}
	v, err := vm.rd(f, o)
	if err != nil {
		return 0, err
	}
	return v.Uint(), nil
}

// effAddr forms base+off with the address use-point checks, mirroring
// the tree-walker's evalAddr (one check when off is absent). Without
// use-point checks the address operands are plain integers.
func (vm *vmState) effAddr(f *frameV, a, b int32) (uint64, error) {
	if !vm.checkUse {
		base, err := vm.uintOf(f, a)
		if err != nil || b == opndNone {
			return base, err
		}
		off, err := vm.uintOf(f, b)
		return base + off, err
	}
	bv, err := vm.rd(f, a)
	if err != nil {
		return 0, err
	}
	if vm.checkUse {
		vm.backend.CheckUse(*bv, UseAddress, vm.v)
	}
	if b == opndNone {
		return bv.Uint(), nil
	}
	ov, err := vm.rd(f, b)
	if err != nil {
		return 0, err
	}
	if vm.checkUse {
		vm.backend.CheckUse(*ov, UseAddress, vm.v)
	}
	return bv.Uint() + ov.Uint(), nil
}

// pushFrame activates a recycled (or new) frame for funcs[fnIdx].
func (vm *vmState) pushFrame(fnIdx int32) *frameV {
	vm.nframes++
	if vm.nframes > len(vm.frames) {
		vm.frames = append(vm.frames, &frameV{})
	}
	nf := vm.frames[vm.nframes-1]
	nregs := int(vm.c.funcs[fnIdx].nregs)
	if cap(nf.regs) < nregs {
		nf.regs = make([]reg, nregs)
	} else {
		nf.regs = nf.regs[:nregs]
		for i := range nf.regs {
			nf.regs[i].def = false
		}
	}
	nf.fn = fnIdx
	nf.t = vm.v
	return nf
}

// loadIntoReg bulk-loads into a register's owned buffers, lending the
// register's parked shadow capacity to the backend and harvesting any
// growth back.
func (vm *vmState) loadIntoReg(r *reg, addr, n uint64) error {
	r.val.Valid = r.validCap
	r.val.Origin = r.originCap
	err := vm.bulk.LoadInto(&r.val, addr, n, vm.v)
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

// noteAlloc maintains one site's verdict inline cache: revalidated by
// table generation and allocation CCID, probed (side-effect-free) only
// on a miss.
func (vm *vmState) noteAlloc(rec *allocRec, ccid uint64) {
	ic := &vm.ics[rec.ic]
	gen := vm.prober.PatchTableGeneration()
	if !ic.valid || ic.gen != gen || ic.ccid != ccid {
		ic.patched = vm.prober.ProbePatched(rec.fn, ccid)
		ic.gen = gen
		ic.ccid = ccid
		ic.valid = true
	}
	if ic.patched {
		ic.patchedAllocs++
	}
}

// zeroValue backs void results (a call with a Dst binds Value{}).
var zeroValue Value

// setReturned stages the entry function's return value into the
// Result, reusing the state's staging capacity (rv may point into a
// register about to be recycled by the next run).
func (vm *vmState) setReturned(res *Result, rv *Value) {
	if rv == nil {
		res.Returned = Value{}
		return
	}
	vm.retBytes = growValueBytes(vm.retBytes, uint64(len(rv.Bytes)))
	copy(vm.retBytes, rv.Bytes)
	out := Value{Bytes: vm.retBytes}
	if rv.Valid != nil {
		vm.retValid = growValueBytes(vm.retValid, uint64(len(rv.Valid)))
		copy(vm.retValid, rv.Valid)
		out.Valid = vm.retValid
	}
	if rv.Origin != nil {
		n := len(rv.Origin)
		if cap(vm.retOrigin) < n {
			vm.retOrigin = make([]uint32, n)
		} else {
			vm.retOrigin = vm.retOrigin[:n]
		}
		copy(vm.retOrigin, rv.Origin)
		out.Origin = vm.retOrigin
	}
	res.Returned = out
}
