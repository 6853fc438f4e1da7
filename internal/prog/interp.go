package prog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"heaptherapy/internal/callgraph"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
)

// Config configures an interpreter.
type Config struct {
	// Backend is the heap/memory substrate (native, shadow, defended).
	Backend HeapBackend
	// Coder applies calling-context encoding at instrumented call
	// sites; nil runs the program uninstrumented.
	Coder *encoding.Coder
	// MaxSteps bounds execution (0 = DefaultMaxSteps).
	MaxSteps uint64
	// MaxDepth bounds call recursion (0 = DefaultMaxDepth).
	MaxDepth int
	// Engine selects the execution substrate (the compiled engine, the
	// zero value, or the tree-walker) for the engine-generic
	// constructors (Prepare, NewExec, RunThreads). New ignores it
	// (always the tree-walker).
	Engine Engine
}

// Interpreter limits.
const (
	// DefaultMaxSteps is the default statement budget per run.
	DefaultMaxSteps = 200_000_000
	// DefaultMaxDepth is the default call-stack depth limit.
	DefaultMaxDepth = 4096
)

// Result reports one program execution.
type Result struct {
	// Output is everything the program emitted (the attack-visible
	// channel: leaked secrets show up here).
	Output []byte
	// Returned is the entry function's return value.
	Returned Value
	// Fault is non-nil if execution was terminated by a memory fault
	// (the simulation's SIGSEGV, e.g. a guard-page hit) or a heap
	// error; the program "crashed" rather than completing.
	Fault error

	// Steps is the number of statements executed.
	Steps uint64
	// Cycles is the virtual-cycle cost (see cost.go), including the
	// backend's own accounting.
	Cycles uint64
	// InterpCycles is the interpreter-side cost alone (no backend
	// delta); with a shared backend (RunThreads) the per-thread backend
	// deltas overlap, so aggregate cost is the sum of InterpCycles plus
	// the backend's total Cycles().
	InterpCycles uint64
	// EncUpdates counts encoding updates executed at instrumented
	// sites.
	EncUpdates uint64
	// Allocs and Frees count heap operations issued.
	Allocs, Frees uint64
	// AllocsByFn breaks allocations down by API (Table IV's columns);
	// index with heapsim.AllocFn values.
	AllocsByFn [8]uint64
}

// Crashed reports whether the run ended in a fault.
func (r *Result) Crashed() bool { return r.Fault != nil }

// ifunc is a function with its precomputed instrumentation flag, so
// the per-call path resolves callee body and prologue cost in one map
// probe.
type ifunc struct {
	fn    *Func
	instr bool // function contains >=1 instrumented site
}

// Interp executes a linked Program against a backend.
//
// The hot paths are allocation-free in steady state: per-site encoding
// updates come from a dense precompiled table (the same SiteUpdate
// records the bytecode compiler embeds), variable slots are recycled
// register-style storage keyed by activation generation, and scalar
// expressions evaluate without materializing Values. The general
// evaluator is retained for shadowed or non-scalar values and is
// bit-identical to the fast path by construction (same binScalar, same
// byte encoding).
type Interp struct {
	p        *Program
	backend  HeapBackend
	bulk     BulkLoader // non-nil when backend supports LoadInto
	coder    *encoding.Coder
	maxSteps uint64
	maxDepth int

	// Precompiled tables, built once at New.
	siteUpd  []encoding.SiteUpdate // per-site V update, indexed by SiteID (nil = uninstrumented run)
	encUpd   uint64                // cycle cost of one encoding update under the bound coder
	funcs    map[string]*ifunc
	checkUse bool // backend observes use points (CheckUse not elidable)

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
	depth      int
	fault      error

	// Recycled storage: frames are reused by call depth, variable and
	// global slots by name; a slot is live only when its generation
	// matches its frame's (or the run's, for globals).
	fstack   []*frame
	gen      uint64 // activation generation counter
	globals  map[string]*vslot
	runGen   uint64  // current run's generation, validates global slots
	scratch  Value   // reusable buffer for transient loads (Output)
	ckBuf    [8]byte // staging for fast-path use-check operands
	storeBuf [8]byte // staging for fast-path store operands

	// Cooperative scheduling hooks for RunThreads: when yield is set,
	// the interpreter calls it every yieldEvery statements.
	yield      func()
	yieldEvery uint64
}

// vslot is one variable's recycled storage; the slot is defined in its
// frame's current activation only when gen matches.
type vslot struct {
	reg
	gen uint64
}

// frame is one recycled activation record, reused across calls at the
// same depth; bumping gen invalidates every slot at no per-slot cost.
type frame struct {
	vars map[string]*vslot
	gen  uint64
	t    uint64 // V read at the function prologue
	ret  reg    // staging for fast-path return values
}

// lookup resolves a variable in the frame's current activation.
func (f *frame) lookup(name string) (*vslot, bool) {
	sl := f.vars[name]
	if sl == nil || sl.gen != f.gen {
		return nil, false
	}
	return sl, true
}

// define returns the slot for name, marking it defined in the current
// activation (the caller writes the value).
func (f *frame) define(name string) *vslot {
	sl := f.vars[name]
	if sl == nil {
		sl = &vslot{}
		f.vars[name] = sl
	}
	sl.gen = f.gen
	return sl
}

// tick accounts one statement and enforces the step budget and the
// scheduling quantum.
func (it *Interp) tick() error {
	it.steps++
	it.cycles += CycStmt
	if it.steps > it.maxSteps {
		return fmt.Errorf("prog %s: step limit %d exceeded", it.p.Name, it.maxSteps)
	}
	if it.yield != nil && it.steps%it.yieldEvery == 0 {
		it.yield()
	}
	return nil
}

// errCrashed signals a terminating memory/heap fault up the exec stack;
// the fault itself is held in Interp.fault.
var errCrashed = errors.New("prog: execution terminated by fault")

// setSchedHook installs the cooperative-scheduling yield hook (see
// RunThreads); both engines implement it, which is what lets threaded
// execution run on either.
func (it *Interp) setSchedHook(every uint64, fn func()) {
	it.yieldEvery = every
	it.yield = fn
}

// New creates an interpreter for a linked program.
func New(p *Program, cfg Config) (*Interp, error) {
	if p.graph == nil {
		return nil, fmt.Errorf("prog %s: program is not linked", p.Name)
	}
	if cfg.Backend == nil {
		return nil, errors.New("prog: Config.Backend is required")
	}
	it := &Interp{
		p:        p,
		backend:  cfg.Backend,
		coder:    cfg.Coder,
		maxSteps: cfg.MaxSteps,
		maxDepth: cfg.MaxDepth,
		globals:  make(map[string]*vslot),
	}
	it.bulk, _ = cfg.Backend.(BulkLoader)
	// Backends that declare CheckUse a no-op let the use-point calls be
	// elided entirely (see UseObserver); wrappers that do not implement
	// the interface keep seeing every call.
	it.checkUse = true
	if obs, ok := cfg.Backend.(UseObserver); ok && !obs.ObservesUse() {
		it.checkUse = false
	}
	if it.maxSteps == 0 {
		it.maxSteps = DefaultMaxSteps
	}
	if it.maxDepth == 0 {
		it.maxDepth = DefaultMaxDepth
	}
	if cfg.Coder != nil {
		it.encUpd = CycEncUpdateAdditive
		if cfg.Coder.Kind() == encoding.EncoderPCC {
			it.encUpd = CycEncUpdatePCC
		}
		n := p.graph.NumEdges()
		it.siteUpd = make([]encoding.SiteUpdate, n)
		for s := 0; s < n; s++ {
			it.siteUpd[s] = cfg.Coder.CompileSite(callgraph.SiteID(s))
		}
	}
	it.funcs = make(map[string]*ifunc, len(p.Funcs))
	for name, fn := range p.Funcs {
		fi := &ifunc{fn: fn}
		if cfg.Coder != nil {
			fi.instr = bodyHasInstrumentedSite(fn.Body, cfg.Coder)
		}
		it.funcs[name] = fi
	}
	return it, nil
}

func bodyHasInstrumentedSite(body []Stmt, coder *encoding.Coder) bool {
	for _, s := range body {
		switch st := s.(type) {
		case Call:
			if coder.Instrumented(st.site) {
				return true
			}
		case Alloc:
			if coder.Instrumented(st.site) {
				return true
			}
		case ReallocStmt:
			if coder.Instrumented(st.site) {
				return true
			}
		case If:
			if bodyHasInstrumentedSite(st.Then, coder) || bodyHasInstrumentedSite(st.Else, coder) {
				return true
			}
		case While:
			if bodyHasInstrumentedSite(st.Body, coder) {
				return true
			}
		}
	}
	return false
}

// frameAt returns the recycled frame for call depth d, growing the
// stack on first use.
func (it *Interp) frameAt(d int) *frame {
	for len(it.fstack) <= d {
		it.fstack = append(it.fstack, &frame{vars: make(map[string]*vslot)})
	}
	return it.fstack[d]
}

// Run executes the program on the given input and returns the result.
// Returned errors indicate malformed programs (undefined variables,
// step-limit exhaustion); memory faults end the run normally with
// Result.Fault set, mirroring a crashed process.
func (it *Interp) Run(input []byte) (*Result, error) {
	it.input = input
	it.inPos = 0
	it.output = nil
	it.v = 0
	it.steps = 0
	it.cycles = 0
	it.encUpdates = 0
	it.allocs = 0
	it.allocsByFn = [8]uint64{}
	it.frees = 0
	it.depth = 0
	it.fault = nil
	it.runGen++
	startCycles := it.backend.Cycles()

	entry := it.funcs[it.p.Entry]
	f := it.frameAt(0)
	it.gen++
	f.gen = it.gen
	f.t = it.v
	_, ret, err := it.execBlock(entry.fn.Body, f)
	res := &Result{
		Output: it.output,
		// The returned value may live in recycled frame storage; copy it
		// out so Results stay independent across runs.
		Returned:   ret.Clone(),
		Steps:      it.steps,
		EncUpdates: it.encUpdates,
		Allocs:     it.allocs,
		AllocsByFn: it.allocsByFn,
		Frees:      it.frees,
	}
	res.InterpCycles = it.cycles
	res.Cycles = it.cycles + (it.backend.Cycles() - startCycles)
	if err != nil {
		if errors.Is(err, errCrashed) {
			res.Fault = it.fault
			return res, nil
		}
		return nil, err
	}
	return res, nil
}

// crash records a fault and returns the crash sentinel.
func (it *Interp) crash(err error) error {
	it.fault = err
	return errCrashed
}

// siteUpdate resolves the precompiled V update for a site; out-of-range
// or unplanned sites read as uninstrumented.
func (it *Interp) siteUpdate(s callgraph.SiteID) encoding.SiteUpdate {
	if s >= 0 && int(s) < len(it.siteUpd) {
		return it.siteUpd[s]
	}
	return encoding.SiteUpdate{}
}

// execBlock runs a statement list; returned reports whether a Return
// was executed.
func (it *Interp) execBlock(body []Stmt, f *frame) (returned bool, ret Value, err error) {
	for _, s := range body {
		if err := it.tick(); err != nil {
			return false, Value{}, err
		}
		switch st := s.(type) {
		case Nop:
			// Costs the base step only.

		case Assign:
			u, ok, err := it.evalU(st.E, f)
			if err != nil {
				return false, Value{}, err
			}
			if ok {
				f.define(st.Dst).setScalar(u)
				break
			}
			v, err := it.eval(st.E, f)
			if err != nil {
				return false, Value{}, err
			}
			f.define(st.Dst).set(&v)

		case SetGlobal:
			u, ok, err := it.evalU(st.E, f)
			if err != nil {
				return false, Value{}, err
			}
			sl := it.globals[st.Dst]
			if sl == nil {
				sl = &vslot{}
				it.globals[st.Dst] = sl
			}
			sl.gen = it.runGen
			if ok {
				sl.setScalar(u)
				break
			}
			v, err := it.eval(st.E, f)
			if err != nil {
				return false, Value{}, err
			}
			sl.set(&v)

		case Alloc:
			if err := it.execAlloc(st, f); err != nil {
				return false, Value{}, err
			}

		case ReallocStmt:
			if err := it.execRealloc(st, f); err != nil {
				return false, Value{}, err
			}

		case FreeStmt:
			u, v, fast, err := it.evalV(st.Ptr, f)
			if err != nil {
				return false, Value{}, err
			}
			it.use(u, v, fast, UseAddress)
			it.frees++
			if err := it.backend.Free(u, it.v); err != nil {
				return false, Value{}, it.crash(err)
			}

		case Load:
			addr, err := it.evalAddr(st.Base, st.Off, f)
			if err != nil {
				return false, Value{}, err
			}
			n, err := it.evalNum(st.N, f)
			if err != nil {
				return false, Value{}, err
			}
			if it.bulk != nil {
				sl := f.define(st.Dst)
				if lerr := it.loadIntoSlot(sl, addr, n); lerr != nil {
					return false, Value{}, it.crash(lerr)
				}
				break
			}
			v, lerr := it.backend.Load(addr, n, it.v)
			if lerr != nil {
				return false, Value{}, it.crash(lerr)
			}
			it.adopt(f.define(st.Dst), v)

		case Store:
			addr, err := it.evalAddr(st.Base, st.Off, f)
			if err != nil {
				return false, Value{}, err
			}
			srcU, srcV, fast, err := it.evalV(st.Src, f)
			if err != nil {
				return false, Value{}, err
			}
			n := uint64(8)
			if st.N != nil {
				nv, err := it.evalNum(st.N, f)
				if err != nil {
					return false, Value{}, err
				}
				n = nv
				if n > 8 {
					n = 8
				}
			}
			// The operand view borrows buffers instead of copying them;
			// the backend only reads it, so no allocation per store.
			var op Value
			if fast {
				binary.LittleEndian.PutUint64(it.storeBuf[:], srcU)
				op = Value{Bytes: it.storeBuf[:n]}
			} else {
				op = srcV.View(0, int(n))
			}
			if serr := it.backend.Store(addr, op, it.v); serr != nil {
				return false, Value{}, it.crash(serr)
			}

		case StoreVar:
			addr, err := it.evalAddr(st.Base, st.Off, f)
			if err != nil {
				return false, Value{}, err
			}
			sl, ok := f.lookup(st.Src)
			if !ok {
				return false, Value{}, fmt.Errorf("prog %s: undefined variable %q", it.p.Name, st.Src)
			}
			if serr := it.backend.Store(addr, sl.val, it.v); serr != nil {
				return false, Value{}, it.crash(serr)
			}

		case StoreBytes:
			addr, err := it.evalAddr(st.Base, st.Off, f)
			if err != nil {
				return false, Value{}, err
			}
			if serr := it.backend.Store(addr, Value{Bytes: st.Data}, it.v); serr != nil {
				return false, Value{}, it.crash(serr)
			}

		case Memcpy:
			dstU, dstV, dstF, err := it.evalV(st.Dst, f)
			if err != nil {
				return false, Value{}, err
			}
			srcU, srcV, srcF, err := it.evalV(st.Src, f)
			if err != nil {
				return false, Value{}, err
			}
			n, err := it.evalNum(st.N, f)
			if err != nil {
				return false, Value{}, err
			}
			it.use(dstU, dstV, dstF, UseAddress)
			it.use(srcU, srcV, srcF, UseAddress)
			if merr := it.backend.Memcpy(dstU, srcU, n, it.v); merr != nil {
				return false, Value{}, it.crash(merr)
			}

		case Memset:
			dstU, dstV, dstF, err := it.evalV(st.Dst, f)
			if err != nil {
				return false, Value{}, err
			}
			b, err := it.evalNum(st.B, f)
			if err != nil {
				return false, Value{}, err
			}
			n, err := it.evalNum(st.N, f)
			if err != nil {
				return false, Value{}, err
			}
			it.use(dstU, dstV, dstF, UseAddress)
			if merr := it.backend.Memset(dstU, byte(b), n, it.v); merr != nil {
				return false, Value{}, it.crash(merr)
			}

		case ReadInput:
			n, err := it.evalNum(st.N, f)
			if err != nil {
				return false, Value{}, err
			}
			// Clamp in uint64 space: a request of 2^63 or more must
			// saturate at the remaining input, not wrap negative.
			take := len(it.input) - it.inPos
			if n < uint64(take) {
				take = int(n)
			}
			src := Value{Bytes: it.input[it.inPos : it.inPos+take]}
			f.define(st.Dst).set(&src)
			it.inPos += take

		case Output:
			addr, err := it.evalAddr(st.Base, st.Off, f)
			if err != nil {
				return false, Value{}, err
			}
			n, err := it.evalNum(st.N, f)
			if err != nil {
				return false, Value{}, err
			}
			// The loaded value only feeds the use check and the output
			// buffer, so it can live in the reusable scratch Value when
			// the backend supports buffer reuse.
			if it.bulk != nil {
				if lerr := it.bulk.LoadInto(&it.scratch, addr, n, it.v); lerr != nil {
					return false, Value{}, it.crash(lerr)
				}
				if it.checkUse {
					it.backend.CheckUse(it.scratch, UseOutput, it.v)
				}
				it.output = append(it.output, it.scratch.Bytes...)
				break
			}
			v, lerr := it.backend.Load(addr, n, it.v)
			if lerr != nil {
				return false, Value{}, it.crash(lerr)
			}
			if it.checkUse {
				it.backend.CheckUse(v, UseOutput, it.v)
			}
			it.output = append(it.output, v.Bytes...)

		case OutputVar:
			sl, ok := f.lookup(st.Src)
			if !ok {
				return false, Value{}, fmt.Errorf("prog %s: undefined variable %q", it.p.Name, st.Src)
			}
			if it.checkUse {
				it.backend.CheckUse(sl.val, UseOutput, it.v)
			}
			it.output = append(it.output, sl.val.Bytes...)

		case If:
			u, v, fast, err := it.evalV(st.Cond, f)
			if err != nil {
				return false, Value{}, err
			}
			it.use(u, v, fast, UseControlFlow)
			block := st.Then
			if u == 0 {
				block = st.Else
			}
			r, rv, err := it.execBlock(block, f)
			if err != nil || r {
				return r, rv, err
			}

		case While:
			for {
				if err := it.tick(); err != nil {
					return false, Value{}, err
				}
				u, v, fast, err := it.evalV(st.Cond, f)
				if err != nil {
					return false, Value{}, err
				}
				it.use(u, v, fast, UseControlFlow)
				if u == 0 {
					break
				}
				r, rv, err := it.execBlock(st.Body, f)
				if err != nil || r {
					return r, rv, err
				}
			}

		case Call:
			rv, err := it.execCall(st, f)
			if err != nil {
				return false, Value{}, err
			}
			if st.Dst != "" {
				f.define(st.Dst).set(&rv)
			}

		case Return:
			if st.E == nil {
				return true, Value{}, nil
			}
			u, ok, err := it.evalU(st.E, f)
			if err != nil {
				return false, Value{}, err
			}
			if ok {
				// Stage the scalar in the frame's return register; the
				// caller copies it into a slot (or Run clones it) before
				// the frame can be reused.
				f.ret.setScalar(u)
				return true, f.ret.val, nil
			}
			v, err := it.eval(st.E, f)
			if err != nil {
				return false, Value{}, err
			}
			return true, v, nil

		default:
			return false, Value{}, fmt.Errorf("prog %s: unknown statement %T", it.p.Name, s)
		}
	}
	return false, Value{}, nil
}

// loadIntoSlot bulk-loads into a slot's owned buffers, lending the
// slot's parked shadow capacity to the backend and harvesting any
// growth back (the tree-walker twin of the Machine's loadIntoReg).
func (it *Interp) loadIntoSlot(sl *vslot, addr, n uint64) error {
	sl.val.Valid = sl.validCap
	sl.val.Origin = sl.originCap
	err := it.bulk.LoadInto(&sl.val, addr, n, it.v)
	if sl.val.Valid != nil {
		sl.validCap = sl.val.Valid
	}
	if sl.val.Origin != nil {
		sl.originCap = sl.val.Origin
	}
	return err
}

// adopt moves an owned Value into a slot without copying (Load results
// own their buffers).
func (it *Interp) adopt(sl *vslot, v Value) {
	sl.val = v
	if v.Valid != nil {
		sl.validCap = v.Valid
	}
	if v.Origin != nil {
		sl.originCap = v.Origin
	}
}

func (it *Interp) execAlloc(st Alloc, f *frame) error {
	size, err := it.evalNum(st.Size, f)
	if err != nil {
		return err
	}
	n := uint64(1)
	if st.N != nil {
		n, err = it.evalNum(st.N, f)
		if err != nil {
			return err
		}
	}
	align := uint64(0)
	if st.Align != nil {
		align, err = it.evalNum(st.Align, f)
		if err != nil {
			return err
		}
	}
	ccid := it.v
	if st.CCID != nil {
		cv, err := it.evalNum(st.CCID, f)
		if err != nil {
			return err
		}
		ccid = cv
		it.encUpdates++
		it.cycles += CycEncUpdatePCC
	} else if u := it.siteUpdate(st.site); u.Instrumented {
		ccid = u.Apply(f.t)
		it.encUpdates++
		it.cycles += it.encUpd
	}
	it.allocs++
	it.allocsByFn[st.Fn]++
	ptr, aerr := it.backend.Alloc(st.Fn, ccid, n, size, align)
	if aerr != nil {
		return it.crash(aerr)
	}
	f.define(st.Dst).setScalar(ptr)
	return nil
}

func (it *Interp) execRealloc(st ReallocStmt, f *frame) error {
	ptr, err := it.evalNum(st.Ptr, f)
	if err != nil {
		return err
	}
	size, err := it.evalNum(st.Size, f)
	if err != nil {
		return err
	}
	ccid := it.v
	if st.CCID != nil {
		cv, err := it.evalNum(st.CCID, f)
		if err != nil {
			return err
		}
		ccid = cv
		it.encUpdates++
		it.cycles += CycEncUpdatePCC
	} else if u := it.siteUpdate(st.site); u.Instrumented {
		ccid = u.Apply(f.t)
		it.encUpdates++
		it.cycles += it.encUpd
	}
	it.allocs++
	it.allocsByFn[heapsim.FnRealloc]++
	newPtr, rerr := it.backend.Realloc(ccid, ptr, size)
	if rerr != nil {
		return it.crash(rerr)
	}
	f.define(st.Dst).setScalar(newPtr)
	return nil
}

func (it *Interp) execCall(st Call, f *frame) (Value, error) {
	fi := it.funcs[st.Callee]
	params := fi.fn.Params
	// Arguments evaluate in order directly into the callee's recycled
	// frame; extras beyond the parameter list still evaluate (for error
	// ordering) before the arity check fires, matching the original
	// args-then-check sequence.
	cf := it.frameAt(it.depth + 1)
	it.gen++
	cf.gen = it.gen
	for i, a := range st.Args {
		u, ok, err := it.evalU(a, f)
		if err != nil {
			return Value{}, err
		}
		var v Value
		if !ok {
			v, err = it.eval(a, f)
			if err != nil {
				return Value{}, err
			}
		}
		if i < len(params) {
			sl := cf.define(params[i])
			if ok {
				sl.setScalar(u)
			} else {
				sl.set(&v)
			}
		}
	}
	if len(st.Args) != len(params) {
		return Value{}, fmt.Errorf("prog %s: call to %s with %d args, want %d",
			it.p.Name, st.Callee, len(st.Args), len(params))
	}
	it.depth++
	if it.depth > it.maxDepth {
		it.depth--
		return Value{}, fmt.Errorf("prog %s: call depth limit %d exceeded", it.p.Name, it.maxDepth)
	}
	defer func() { it.depth-- }()

	if u := it.siteUpdate(st.site); u.Instrumented {
		it.v = u.Apply(f.t)
		it.encUpdates++
		it.cycles += it.encUpd
	}
	it.cycles += CycCall
	cf.t = it.v
	if fi.instr {
		it.cycles += CycEncPrologue
	}
	_, ret, err := it.execBlock(fi.fn.Body, cf)
	// Restore discipline: V returns to the caller's context value. For
	// uninstrumented sites this is a no-op by the invariant that every
	// callee restores V before returning.
	it.v = f.t
	if err != nil {
		return Value{}, err
	}
	return ret, nil
}

// evalAddr evaluates base+off, applying address use-point checks.
func (it *Interp) evalAddr(base, off Expr, f *frame) (uint64, error) {
	bu, bv, bf, err := it.evalV(base, f)
	if err != nil {
		return 0, err
	}
	it.use(bu, bv, bf, UseAddress)
	if off == nil {
		return bu, nil
	}
	ou, ov, of, err := it.evalV(off, f)
	if err != nil {
		return 0, err
	}
	it.use(ou, ov, of, UseAddress)
	return bu + ou, nil
}

// use applies a use-point check on an evaluated operand: fast-path
// scalars are staged in an 8-byte scratch (bit-identical to the Value
// the general evaluator would have produced), full Values pass through
// unchanged. Elided entirely when the backend does not observe uses.
func (it *Interp) use(u uint64, v Value, fast bool, kind UseKind) {
	if !it.checkUse {
		return
	}
	if fast {
		binary.LittleEndian.PutUint64(it.ckBuf[:], u)
		it.backend.CheckUse(Value{Bytes: it.ckBuf[:]}, kind, it.v)
		return
	}
	it.backend.CheckUse(v, kind, it.v)
}

// evalV evaluates e for a consumer that needs the scalar and (for use
// checks) the operand value: fast=true means the expression reduced on
// the scalar path and v is unset.
func (it *Interp) evalV(e Expr, f *frame) (u uint64, v Value, fast bool, err error) {
	u, ok, err := it.evalU(e, f)
	if err != nil {
		return 0, Value{}, false, err
	}
	if ok {
		return u, Value{}, true, nil
	}
	v, err = it.eval(e, f)
	if err != nil {
		return 0, Value{}, false, err
	}
	return v.Uint(), v, false, nil
}

// evalNum evaluates e for a pure numeric consumer (sizes, counts).
func (it *Interp) evalNum(e Expr, f *frame) (uint64, error) {
	u, ok, err := it.evalU(e, f)
	if err != nil {
		return 0, err
	}
	if ok {
		return u, nil
	}
	v, err := it.eval(e, f)
	if err != nil {
		return 0, err
	}
	return v.Uint(), nil
}

// evalU is the allocation-free scalar fast path: it reduces pure
// fully-valid 8-byte expressions without materializing Values. ok=false
// means the expression involves shadowed or non-8-byte values and needs
// the general evaluator; evaluation is side-effect-free, so callers
// fall back to eval on the same expression.
func (it *Interp) evalU(e Expr, f *frame) (u uint64, ok bool, err error) {
	switch ex := e.(type) {
	case Const:
		return ex.V, true, nil
	case Var:
		sl, found := f.lookup(ex.Name)
		if !found {
			return 0, false, fmt.Errorf("prog %s: undefined variable %q", it.p.Name, ex.Name)
		}
		v := &sl.val
		if v.Valid == nil && v.Origin == nil && len(v.Bytes) == 8 {
			return binary.LittleEndian.Uint64(v.Bytes), true, nil
		}
		return 0, false, nil
	case Bin:
		a, ok, err := it.evalU(ex.A, f)
		if err != nil || !ok {
			return 0, false, err
		}
		b, ok, err := it.evalU(ex.B, f)
		if err != nil || !ok {
			return 0, false, err
		}
		r, err := binScalar(ex.Op, a, b)
		if err != nil {
			return 0, false, err
		}
		return r, true, nil
	case InputLen:
		return uint64(len(it.input)), true, nil
	case InputRemaining:
		return uint64(len(it.input) - it.inPos), true, nil
	case Global:
		sl := it.globals[ex.Name]
		if sl == nil || sl.gen != it.runGen {
			return 0, true, nil // undefined globals read as zero
		}
		v := &sl.val
		if v.Valid == nil && v.Origin == nil && len(v.Bytes) == 8 {
			return binary.LittleEndian.Uint64(v.Bytes), true, nil
		}
		return 0, false, nil
	default:
		return 0, false, nil
	}
}

// eval is the general evaluator, retained for shadowed and non-scalar
// values; Values read from variables alias slot storage and must be
// consumed (or copied) before the slot is written again.
func (it *Interp) eval(e Expr, f *frame) (Value, error) {
	switch ex := e.(type) {
	case Const:
		return Scalar(ex.V), nil
	case Var:
		sl, ok := f.lookup(ex.Name)
		if !ok {
			return Value{}, fmt.Errorf("prog %s: undefined variable %q", it.p.Name, ex.Name)
		}
		return sl.val, nil
	case InputLen:
		return Scalar(uint64(len(it.input))), nil
	case InputRemaining:
		return Scalar(uint64(len(it.input) - it.inPos)), nil
	case Global:
		if sl := it.globals[ex.Name]; sl != nil && sl.gen == it.runGen {
			return sl.val, nil
		}
		return Scalar(0), nil
	case Bin:
		a, err := it.eval(ex.A, f)
		if err != nil {
			return Value{}, err
		}
		b, err := it.eval(ex.B, f)
		if err != nil {
			return Value{}, err
		}
		return applyBin(ex.Op, a, b)
	default:
		return Value{}, fmt.Errorf("prog %s: unknown expression %T", it.p.Name, e)
	}
}

func applyBin(op BinOp, a, b Value) (Value, error) {
	r, err := binScalar(op, a.Uint(), b.Uint())
	if err != nil {
		return Value{}, err
	}
	return combineScalar(r, a, b), nil
}

// binScalar is the scalar ALU shared by the tree-walker and the
// compiled engine; keeping one implementation is what makes "same
// operator, same bits" a structural property rather than a test
// obligation.
func binScalar(op BinOp, x, y uint64) (uint64, error) {
	var r uint64
	switch op {
	case OpAdd:
		r = x + y
	case OpSub:
		r = x - y
	case OpMul:
		r = x * y
	case OpDiv:
		if y != 0 {
			r = x / y
		}
	case OpMod:
		if y != 0 {
			r = x % y
		}
	case OpAnd:
		r = x & y
	case OpOr:
		r = x | y
	case OpXor:
		r = x ^ y
	case OpShl:
		r = x << (y & 63)
	case OpShr:
		r = x >> (y & 63)
	case OpLt:
		r = b2u(x < y)
	case OpLe:
		r = b2u(x <= y)
	case OpEq:
		r = b2u(x == y)
	case OpNe:
		r = b2u(x != y)
	case OpGt:
		r = b2u(x > y)
	case OpGe:
		r = b2u(x >= y)
	default:
		return 0, fmt.Errorf("prog: unknown binary op %d", op)
	}
	return r, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
