package prog

import (
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
	// Engine selects the execution substrate for the engine-generic
	// constructors (Prepare, NewExec, RunThreads): the compiled engine,
	// the zero value and the one to serve with, or the tree-walker, the
	// plain reference the compiled engine is checked against and not a
	// speed baseline. New ignores it (always the tree-walker).
	Engine Engine
}

// Interpreter limits.
const (
	// DefaultMaxSteps is the default statement budget per run.
	DefaultMaxSteps = 200_000_000
	// maxDepth is the call-stack depth limit of both engines.
	maxDepth = 4096
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

// Interp executes a linked Program against a backend.
//
// It is the semantic reference the compiled engine is checked against,
// so it is the plainest walker that gets the results, errors, error
// order and cycle accounting right: a fresh variable map per call,
// one evaluator, only the core HeapBackend methods, and the encoding
// package's reference V update. Values are never written in place, so
// variables may share buffers.
type Interp struct {
	p        *Program
	backend  HeapBackend
	coder    *encoding.Coder
	maxSteps uint64
	encUpd   uint64          // cycle cost of one encoding update under the bound coder
	instr    map[string]bool // functions containing an instrumented site

	// Per-run state.
	globals    map[string]Value
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

	// Cooperative scheduling hooks for RunThreads: when yield is set,
	// the interpreter calls it every yieldEvery statements.
	yield      func()
	yieldEvery uint64
}

// frame is one activation: its variables and the V read at the
// function prologue.
type frame struct {
	vars map[string]Value
	t    uint64
}

// tick accounts one statement and enforces the step budget and the
// scheduling quantum.
func (it *Interp) tick() error {
	it.steps++
	it.cycles += CycStmt
	if it.steps > it.maxSteps {
		return fmt.Errorf("prog %s: %w %d exceeded", it.p.Name, ErrStepLimit, it.maxSteps)
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
	}
	if it.maxSteps == 0 {
		it.maxSteps = DefaultMaxSteps
	}
	if cfg.Coder != nil {
		it.encUpd = CycEncUpdateAdditive
		if cfg.Coder.Kind() == encoding.EncoderPCC {
			it.encUpd = CycEncUpdatePCC
		}
		it.instr = make(map[string]bool, len(p.Funcs))
		for name, fn := range p.Funcs {
			it.instr[name] = bodyHasInstrumentedSite(fn.Body, cfg.Coder)
		}
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

// Run executes the program on the given input and returns the result.
// Returned errors indicate malformed programs (undefined variables,
// step-limit exhaustion); memory faults end the run normally with
// Result.Fault set, mirroring a crashed process.
func (it *Interp) Run(input []byte) (*Result, error) {
	it.globals = make(map[string]Value)
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
	startCycles := it.backend.Cycles()

	f := &frame{vars: make(map[string]Value), t: it.v}
	_, ret, err := it.execBlock(it.p.Funcs[it.p.Entry].Body, f)
	res := &Result{
		Output: it.output,
		// The returned value may share the input's bytes; copy it out so
		// Results stay independent of the caller's buffers.
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

// encode applies site s's V update to the prologue value t through
// the encoding package's reference Coder.Update, accounting its cost;
// ok is false at uninstrumented sites.
func (it *Interp) encode(s callgraph.SiteID, t uint64) (v uint64, ok bool) {
	if it.coder == nil || !it.coder.Instrumented(s) {
		return 0, false
	}
	it.encUpdates++
	it.cycles += it.encUpd
	return it.coder.Update(t, s), true
}

// execBlock runs a statement list; returned reports whether a Return
// was executed.
func (it *Interp) execBlock(body []Stmt, f *frame) (returned bool, ret Value, err error) {
	for _, s := range body {
		if err := it.tick(); err != nil {
			return false, Value{}, err
		}
		switch st := s.(type) {
		case If:
			c, err := it.use(st.Cond, f, UseControlFlow)
			if err != nil {
				return false, Value{}, err
			}
			block := st.Then
			if c.Uint() == 0 {
				block = st.Else
			}
			if r, rv, err := it.execBlock(block, f); err != nil || r {
				return r, rv, err
			}

		case While:
			for {
				if err := it.tick(); err != nil {
					return false, Value{}, err
				}
				c, err := it.use(st.Cond, f, UseControlFlow)
				if err != nil {
					return false, Value{}, err
				}
				if c.Uint() == 0 {
					break
				}
				if r, rv, err := it.execBlock(st.Body, f); err != nil || r {
					return r, rv, err
				}
			}

		case Return:
			if st.E == nil {
				return true, Value{}, nil
			}
			v, err := it.eval(st.E, f)
			if err != nil {
				return false, Value{}, err
			}
			return true, v, nil

		default:
			if err := it.exec(s, f); err != nil {
				return false, Value{}, err
			}
		}
	}
	return false, Value{}, nil
}

// exec runs one straight-line statement.
func (it *Interp) exec(s Stmt, f *frame) error {
	switch st := s.(type) {
	case Nop:
		// Costs the base step only.

	case Assign:
		v, err := it.eval(st.E, f)
		if err != nil {
			return err
		}
		f.vars[st.Dst] = v

	case SetGlobal:
		v, err := it.eval(st.E, f)
		if err != nil {
			return err
		}
		it.globals[st.Dst] = v

	case Alloc:
		size, err := it.evalNum(st.Size, f)
		if err != nil {
			return err
		}
		n, align := uint64(1), uint64(0)
		if st.N != nil {
			if n, err = it.evalNum(st.N, f); err != nil {
				return err
			}
		}
		if st.Align != nil {
			if align, err = it.evalNum(st.Align, f); err != nil {
				return err
			}
		}
		ccid, err := it.allocCCID(st.site, st.CCID, f)
		if err != nil {
			return err
		}
		it.allocs++
		it.allocsByFn[st.Fn]++
		ptr, err := it.backend.Alloc(st.Fn, ccid, n, size, align)
		if err != nil {
			return it.crash(err)
		}
		f.vars[st.Dst] = Scalar(ptr)

	case ReallocStmt:
		ptr, err := it.evalNum(st.Ptr, f)
		if err != nil {
			return err
		}
		size, err := it.evalNum(st.Size, f)
		if err != nil {
			return err
		}
		ccid, err := it.allocCCID(st.site, st.CCID, f)
		if err != nil {
			return err
		}
		it.allocs++
		it.allocsByFn[heapsim.FnRealloc]++
		newPtr, err := it.backend.Realloc(ccid, ptr, size)
		if err != nil {
			return it.crash(err)
		}
		f.vars[st.Dst] = Scalar(newPtr)

	case FreeStmt:
		p, err := it.use(st.Ptr, f, UseAddress)
		if err != nil {
			return err
		}
		it.frees++
		if err := it.backend.Free(p.Uint(), it.v); err != nil {
			return it.crash(err)
		}

	case Load:
		addr, err := it.evalAddr(st.Base, st.Off, f)
		if err != nil {
			return err
		}
		n, err := it.evalNum(st.N, f)
		if err != nil {
			return err
		}
		v, err := it.backend.Load(addr, n, it.v)
		if err != nil {
			return it.crash(err)
		}
		f.vars[st.Dst] = v

	case Store:
		addr, err := it.evalAddr(st.Base, st.Off, f)
		if err != nil {
			return err
		}
		src, err := it.eval(st.Src, f)
		if err != nil {
			return err
		}
		n := uint64(8)
		if st.N != nil {
			if n, err = it.evalNum(st.N, f); err != nil {
				return err
			}
			n = min(n, 8)
		}
		if err := it.backend.Store(addr, src.View(0, int(n)), it.v); err != nil {
			return it.crash(err)
		}

	case StoreVar:
		addr, err := it.evalAddr(st.Base, st.Off, f)
		if err != nil {
			return err
		}
		v, err := it.lookup(f, st.Src)
		if err != nil {
			return err
		}
		if err := it.backend.Store(addr, v, it.v); err != nil {
			return it.crash(err)
		}

	case StoreBytes:
		addr, err := it.evalAddr(st.Base, st.Off, f)
		if err != nil {
			return err
		}
		if err := it.backend.Store(addr, Value{Bytes: st.Data}, it.v); err != nil {
			return it.crash(err)
		}

	case Memcpy:
		// Every operand evaluates before any use check fires.
		dst, err := it.eval(st.Dst, f)
		if err != nil {
			return err
		}
		src, err := it.eval(st.Src, f)
		if err != nil {
			return err
		}
		n, err := it.evalNum(st.N, f)
		if err != nil {
			return err
		}
		it.backend.CheckUse(dst, UseAddress, it.v)
		it.backend.CheckUse(src, UseAddress, it.v)
		if err := it.backend.Memcpy(dst.Uint(), src.Uint(), n, it.v); err != nil {
			return it.crash(err)
		}

	case Memset:
		dst, err := it.eval(st.Dst, f)
		if err != nil {
			return err
		}
		b, err := it.evalNum(st.B, f)
		if err != nil {
			return err
		}
		n, err := it.evalNum(st.N, f)
		if err != nil {
			return err
		}
		it.backend.CheckUse(dst, UseAddress, it.v)
		if err := it.backend.Memset(dst.Uint(), byte(b), n, it.v); err != nil {
			return it.crash(err)
		}

	case ReadInput:
		n, err := it.evalNum(st.N, f)
		if err != nil {
			return err
		}
		// Clamp in uint64 space: a request of 2^63 or more must
		// saturate at the remaining input, not wrap negative.
		take := len(it.input) - it.inPos
		if n < uint64(take) {
			take = int(n)
		}
		f.vars[st.Dst] = Value{Bytes: it.input[it.inPos : it.inPos+take]}
		it.inPos += take

	case Output:
		addr, err := it.evalAddr(st.Base, st.Off, f)
		if err != nil {
			return err
		}
		n, err := it.evalNum(st.N, f)
		if err != nil {
			return err
		}
		v, err := it.backend.Load(addr, n, it.v)
		if err != nil {
			return it.crash(err)
		}
		it.backend.CheckUse(v, UseOutput, it.v)
		it.output = append(it.output, v.Bytes...)

	case OutputVar:
		v, err := it.lookup(f, st.Src)
		if err != nil {
			return err
		}
		it.backend.CheckUse(v, UseOutput, it.v)
		it.output = append(it.output, v.Bytes...)

	case Call:
		rv, err := it.execCall(st, f)
		if err != nil {
			return err
		}
		if st.Dst != "" {
			f.vars[st.Dst] = rv
		}

	default:
		return fmt.Errorf("prog %s: unknown statement %T", it.p.Name, s)
	}
	return nil
}

// allocCCID returns the CCID an allocation passes to the backend: an
// explicit CCID operand (costed as a PCC update), else the site's
// encoded V, else V itself.
func (it *Interp) allocCCID(site callgraph.SiteID, ccid Expr, f *frame) (uint64, error) {
	if ccid != nil {
		cv, err := it.evalNum(ccid, f)
		if err != nil {
			return 0, err
		}
		it.encUpdates++
		it.cycles += CycEncUpdatePCC
		return cv, nil
	}
	if v, ok := it.encode(site, f.t); ok {
		return v, nil
	}
	return it.v, nil
}

func (it *Interp) execCall(st Call, f *frame) (Value, error) {
	fn := it.p.Funcs[st.Callee]
	// Arguments evaluate in order; extras beyond the parameter list still
	// evaluate (for error ordering) before the arity check fires.
	cf := &frame{vars: make(map[string]Value, len(fn.Params))}
	for i, a := range st.Args {
		v, err := it.eval(a, f)
		if err != nil {
			return Value{}, err
		}
		if i < len(fn.Params) {
			cf.vars[fn.Params[i]] = v
		}
	}
	if len(st.Args) != len(fn.Params) {
		return Value{}, fmt.Errorf("prog %s: call to %s with %d args, want %d",
			it.p.Name, st.Callee, len(st.Args), len(fn.Params))
	}
	it.depth++
	if it.depth > maxDepth {
		it.depth--
		return Value{}, fmt.Errorf("prog %s: call depth limit %d exceeded", it.p.Name, maxDepth)
	}
	defer func() { it.depth-- }()

	if v, ok := it.encode(st.site, f.t); ok {
		it.v = v
	}
	it.cycles += CycCall
	cf.t = it.v
	if it.instr[st.Callee] {
		it.cycles += CycEncPrologue
	}
	_, ret, err := it.execBlock(fn.Body, cf)
	// Restore discipline: V returns to the caller's context value. For
	// uninstrumented sites this is a no-op by the invariant that every
	// callee restores V before returning.
	it.v = f.t
	if err != nil {
		return Value{}, err
	}
	return ret, nil
}

// lookup reads a variable of the current activation.
func (it *Interp) lookup(f *frame, name string) (Value, error) {
	v, ok := f.vars[name]
	if !ok {
		return Value{}, fmt.Errorf("prog %s: undefined variable %q", it.p.Name, name)
	}
	return v, nil
}

// use evaluates e at a use point and hands the operand to CheckUse.
func (it *Interp) use(e Expr, f *frame, kind UseKind) (Value, error) {
	v, err := it.eval(e, f)
	if err != nil {
		return Value{}, err
	}
	it.backend.CheckUse(v, kind, it.v)
	return v, nil
}

// evalAddr evaluates base+off, applying address use-point checks.
func (it *Interp) evalAddr(base, off Expr, f *frame) (uint64, error) {
	b, err := it.use(base, f, UseAddress)
	if err != nil || off == nil {
		return b.Uint(), err
	}
	o, err := it.use(off, f, UseAddress)
	if err != nil {
		return 0, err
	}
	return b.Uint() + o.Uint(), nil
}

// evalNum evaluates e for a pure numeric consumer (sizes, counts).
func (it *Interp) evalNum(e Expr, f *frame) (uint64, error) {
	v, err := it.eval(e, f)
	return v.Uint(), err
}

// eval is the one evaluator.
func (it *Interp) eval(e Expr, f *frame) (Value, error) {
	switch ex := e.(type) {
	case Const:
		return Scalar(ex.V), nil
	case Var:
		return it.lookup(f, ex.Name)
	case InputLen:
		return Scalar(uint64(len(it.input))), nil
	case InputRemaining:
		return Scalar(uint64(len(it.input) - it.inPos)), nil
	case Global:
		if v, ok := it.globals[ex.Name]; ok {
			return v, nil
		}
		return Scalar(0), nil // undefined globals read as zero
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
