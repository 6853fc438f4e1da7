package prog

// The bytecode compiler. compile lowers a linked Program's AST once
// into a flat instruction stream executed by the compiled engine's
// Machine (jit.go), whose cold tier interprets it directly:
//
//   - every function body becomes a contiguous run of fixed-size
//     instructions in one shared []instr, with If/While lowered to
//     conditional branches and resolved absolute jump targets;
//   - frame variables become register indices assigned at compile time
//     (params first, then locals in first-use order, then expression
//     temporaries), so the per-call map[string]Value disappears;
//   - constants are interned into a pool of immutable scalar Values;
//   - the hot statement forms are superinstructions: opAlloc fuses the
//     encoding update, allocation counters, and the backend call;
//     opLoad/opStore fuse address formation, use-point checks, and the
//     memory operation; opCall/opRet fuse the V save/restore discipline
//     with frame push/pop — one dispatch where the tree-walker pays
//     three to five interface dispatches;
//   - call/alloc/realloc sites carry metadata records with their
//     encoding update precompiled (encoding.Coder.CompileSite), so no
//     plan lookup happens at run time;
//   - instruction pairs that run as one dispatch are marked once, after
//     a function's jump targets are final (markFusion): an opBin
//     feeding the loop-head opBr or the loop-latch opJump, and chained
//     opBin pairs. The second instruction stays in place, so code
//     layout, jump targets and site order are those of the unfused
//     stream; each tier decides per execution whether to honour a mark.
//
// The compiled form is immutable and goroutine-safe: one bytecode can
// back any number of Machines (a Prepared shares one across workers).
// All mutable state lives in the Machine.
//
// Equivalence contract: for every program the Machine must be
// bit-identical to the tree-walker — outputs, Result fields, heap
// and defense statistics, fault addresses, crash errors, and cycle
// counts — for every run that produces a Result. The one sanctioned divergence is
// invisible in results: expression operands are evaluated by discrete
// instructions before a statement's superinstruction runs, so when a
// MALFORMED program aborts with an undefined-variable error mid-
// statement, backend-visible no-result side effects (a shadow warning
// from a CheckUse that the tree-walker had already issued) may differ.
// Aborted runs return no Result on either engine, and error ORDER is
// preserved (opCheckVar pins each variable's definedness check at its
// tree evaluation position), so the divergence is unobservable through
// the Run API. fuzz_test.go hunts for violations of this contract.

import (
	"fmt"
	"math"

	"heaptherapy/internal/callgraph"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
)

// opcode enumerates bytecode instructions.
type opcode uint8

const (
	opNop opcode = iota
	// Data movement and arithmetic.
	opLoadK     // dst = consts[a']
	opMove      // dst = regs[a] (deep copy)
	opBin       // dst = regs/consts[a] <bop> regs/consts[b]
	opInputLen  // dst = len(input)
	opInputRem  // dst = len(input) - inPos
	opGlobalGet // dst = globals[aux] (undefined reads 0)
	opGlobalSet // globals[aux] = operand a
	opCheckVar  // error if regs[a] is undefined (eval-order pin)
	// Control flow.
	opJump // pc = aux
	opBr   // CheckUse(a, control-flow); if a == 0 then pc = aux
	opCall // call calls[aux]
	opRet  // return operand a
	opRetVoid
	// Heap and memory superinstructions.
	opAlloc   // allocs[aux]: fused encoding update + counters + backend.Alloc
	opRealloc // allocs[aux] with the realloc shape
	opFree    // CheckUse(a, address); backend.Free
	opLoad    // dst = mem[a+b .. c] (fused addr check + load-into-register)
	opStore   // mem[a+b] = first min(dst',8) bytes of c
	opStoreVar
	opStoreBytes // mem[a+b] = datas[aux]
	opMemcpy     // memcpy(a, b, c)
	opMemset     // memset(a, b, c)
	opReadInput  // dst = up to a bytes of input
	opOutput     // emit mem[a+b .. c]
	opOutputVar  // emit regs[c]
)

// opndNone marks an absent optional operand (e.g. a nil Off).
const opndNone = int32(math.MinInt32)

// fuseKind marks an opBin whose successor can run in the same
// dispatch. markFusion sets it; the mark lives in instr's padding.
type fuseKind uint8

const (
	fuseNone fuseKind = iota
	fuseBr            // next is an opBr on this opBin's dst (loop head, If)
	fuseJump          // next is an opJump (loop latch)
	fuseBin           // next is another opBin (closure tier only)
)

// instr is one fixed-size bytecode instruction. Operand slots a, b, c (and
// dst where noted) address the register file when >= 0 and the
// constant pool as ^v when negative; opndNone means absent. aux is
// opcode-specific: a jump target, a record index, or a pool index.
// tick marks the first instruction of a statement (and each loop
// iteration's condition head): it charges CycStmt, counts a step, and
// runs the scheduling quantum — exactly the tree-walker's tick. fuse
// is the compile-time fusion mark (opBin only); it fits the padding
// after bop, so an instr stays 24 bytes.
type instr struct {
	op   opcode
	tick bool
	bop  BinOp
	fuse fuseKind
	dst  int32 // destination register; opStore reuses it as the N operand
	a    int32
	b    int32
	c    int32
	aux  int32
}

// vmFunc is the compiled form of one function.
type vmFunc struct {
	name     string
	entry    int32
	nregs    int32
	nparams  int32
	regNames []string // register index -> variable name ("" for temps)
	prologue bool     // body contains an instrumented site (CycEncPrologue)
}

// callRec is the static metadata of one call site. Its operands live
// in the bytecode's shared callArgs pool, so a record is 32 bytes.
type callRec struct {
	upd   encoding.SiteUpdate
	fnIdx int32
	dst   int32 // caller register for the return value, or opndNone
	args  int32 // first operand in callArgs
	nargs int32 // caller-frame operands, in evaluation order
}

// allocRec is the static metadata of one allocation or realloc site.
type allocRec struct {
	fn      heapsim.AllocFn // lookup/alloc API (FnRealloc for reallocs)
	dst     int32
	ptr     int32 // realloc only
	size    int32
	n       int32 // calloc count operand (constant 1 when absent)
	align   int32 // alignment operand (constant 0 when absent)
	ccid    int32 // explicit CCID operand, or opndNone
	byFn    heapsim.AllocFn
	upd     encoding.SiteUpdate
	ic      int32 // verdict inline-cache slot
	siteID  callgraph.SiteID
	realloc bool
}

// argsOf returns a call site's operands.
func (b *bytecode) argsOf(rec *callRec) []int32 {
	return b.callArgs[rec.args : rec.args+rec.nargs]
}

// bytecode is an immutable compiled program: share one across any
// number of Machines (and goroutines — nothing here is written after
// compile returns).
type bytecode struct {
	p     *Program
	coder *encoding.Coder

	code     []instr
	consts   []Value  // interned scalar constants (never mutated)
	constU   []uint64 // parallel scalar view of consts
	datas    []Value  // StoreBytes payloads (borrow the AST's bytes)
	funcs    []vmFunc
	calls    []callRec
	callArgs []int32 // every call site's operands, indexed by callRec.args
	allocs   []allocRec

	globalNames []string

	icCount   int32  // one verdict cache per allocation site
	encCycles uint64 // cost of one coder-driven encoding update
}

// compile lowers a linked program for the given coder (nil compiles it
// uninstrumented, like running the tree-walker with Config.Coder nil).
// The coder is baked in because site updates are resolved to constants
// at compile time.
func compile(p *Program, coder *encoding.Coder) (*bytecode, error) {
	if p.graph == nil {
		return nil, fmt.Errorf("prog %s: program is not linked", p.Name)
	}
	c := &compiler{
		out:       &bytecode{p: p, coder: coder},
		constIdx:  make(map[uint64]int32),
		globalIdx: make(map[string]int32),
		funcIdx:   make(map[string]int32),
	}
	if coder != nil {
		c.out.encCycles = CycEncUpdateAdditive
		if coder.Kind() == encoding.EncoderPCC {
			c.out.encCycles = CycEncUpdatePCC
		}
	}

	// Deterministic function order: entry first (mirroring Link's node
	// numbering), the rest sorted.
	names := sortedFuncNames(p)
	for i, name := range names {
		c.funcIdx[name] = int32(i)
	}
	for _, name := range names {
		f := p.Funcs[name]
		prologue := coder != nil && bodyHasInstrumentedSite(f.Body, coder)
		if err := c.compileFunc(f, prologue); err != nil {
			return nil, err
		}
	}
	c.out.trim()
	return c.out, nil
}

// trim re-homes every slice in a backing array of exactly its length:
// the bytecode is immutable from here on and lives as long as its
// Prepared, so append slack would be held for the program's lifetime.
func (b *bytecode) trim() {
	b.code = exact(b.code)
	b.consts = exact(b.consts)
	b.constU = exact(b.constU)
	b.datas = exact(b.datas)
	b.funcs = exact(b.funcs)
	for i := range b.funcs {
		b.funcs[i].regNames = exact(b.funcs[i].regNames)
	}
	b.calls = exact(b.calls)
	b.callArgs = exact(b.callArgs)
	b.allocs = exact(b.allocs)
	b.globalNames = exact(b.globalNames)
}

// exact returns s with len == cap, copying only when s has slack.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// sortedFuncNames returns the entry function first, then the remaining
// functions in sorted order (the same shape Link uses).
func sortedFuncNames(p *Program) []string {
	names := make([]string, 0, len(p.Funcs))
	names = append(names, p.Entry)
	rest := make([]string, 0, len(p.Funcs)-1)
	for name := range p.Funcs {
		if name != p.Entry {
			rest = append(rest, name)
		}
	}
	sortStrings(rest)
	return append(names, rest...)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// compiler holds cross-function compile state.
type compiler struct {
	out       *bytecode
	constIdx  map[uint64]int32
	globalIdx map[string]int32
	funcIdx   map[string]int32

	// Per-function state.
	fn       *vmFunc
	regIdx   map[string]int32
	tempBase int32
	curTemp  int32
	maxTemp  int32
	isTarget []bool // markFusion scratch, reused across functions
}

// konst interns a scalar constant and returns its operand encoding.
func (c *compiler) konst(v uint64) int32 {
	if idx, ok := c.constIdx[v]; ok {
		return ^idx
	}
	idx := int32(len(c.out.consts))
	c.out.consts = append(c.out.consts, Scalar(v))
	c.out.constU = append(c.out.constU, v)
	c.constIdx[v] = idx
	return ^idx
}

// global interns a global-variable name.
func (c *compiler) global(name string) int32 {
	if idx, ok := c.globalIdx[name]; ok {
		return idx
	}
	idx := int32(len(c.out.globalNames))
	c.out.globalNames = append(c.out.globalNames, name)
	c.globalIdx[name] = idx
	return idx
}

// reg returns the register of a named variable, allocating on first
// use.
func (c *compiler) reg(name string) int32 {
	if idx, ok := c.regIdx[name]; ok {
		return idx
	}
	idx := int32(len(c.fn.regNames))
	c.fn.regNames = append(c.fn.regNames, name)
	c.regIdx[name] = idx
	return idx
}

// temp allocates an expression temporary; temporaries are recycled at
// every statement boundary (and never live across one).
func (c *compiler) temp() int32 {
	idx := c.tempBase + c.curTemp
	c.curTemp++
	if c.curTemp > c.maxTemp {
		c.maxTemp = c.curTemp
	}
	return idx
}

// emit appends an instruction and returns its index.
func (c *compiler) emit(ins instr) int32 {
	c.out.code = append(c.out.code, ins)
	return int32(len(c.out.code) - 1)
}

func (c *compiler) newIC() int32 {
	ic := c.out.icCount
	c.out.icCount++
	return ic
}

// compileFunc lowers one function body.
func (c *compiler) compileFunc(f *Func, prologue bool) error {
	c.out.funcs = append(c.out.funcs, vmFunc{
		name:     f.Name,
		entry:    int32(len(c.out.code)),
		nparams:  int32(len(f.Params)),
		prologue: prologue,
	})
	c.fn = &c.out.funcs[len(c.out.funcs)-1]
	c.regIdx = make(map[string]int32)
	for _, p := range f.Params {
		c.reg(p)
	}
	// Pre-walk so every named variable sits below the temp area.
	collectVars(c, f.Body)
	c.tempBase = int32(len(c.fn.regNames))
	c.maxTemp = 0
	if err := c.compileBody(f.Body); err != nil {
		return err
	}
	// Falling off the end returns void without a tick, exactly like the
	// tree-walker's execBlock running out of statements.
	c.emit(instr{op: opRetVoid, a: opndNone})
	c.markFusion(c.out.code[c.fn.entry:], c.fn.entry)
	c.fn.nregs = c.tempBase + c.maxTemp
	// Temporaries get placeholder names: they are always defined before
	// use by construction, so these never reach an error message.
	for i := c.tempBase; i < c.fn.nregs; i++ {
		c.fn.regNames = append(c.fn.regNames, "")
	}
	c.fn = nil
	return nil
}

// markFusion sets the fusion marks of one function's code, whose jump
// targets are final. A pair never fuses across a jump target (control
// could enter at its second instruction), and an opBr or opJump fuses
// only when it carries no tick, so a fused dispatch runs at most the
// first instruction's tick. The mark is the one fusion rule both tiers
// read: the cold tier runs marked fuseBr/fuseJump pairs in one
// dispatch, the closure tier builds one closure per marked pair.
func (c *compiler) markFusion(code []instr, entry int32) {
	if cap(c.isTarget) < len(code) {
		c.isTarget = make([]bool, len(code))
	}
	isTarget := c.isTarget[:len(code)]
	clear(isTarget)
	for i := range code {
		switch code[i].op {
		case opJump, opBr:
			if t := code[i].aux - entry; t >= 0 && int(t) < len(code) {
				isTarget[t] = true
			}
		}
	}
	for i := 0; i+1 < len(code); i++ {
		ins, nxt := &code[i], &code[i+1]
		if ins.op != opBin || isTarget[i+1] {
			continue
		}
		switch {
		case nxt.op == opBr && nxt.a == ins.dst && !nxt.tick:
			ins.fuse = fuseBr
		case nxt.op == opJump && !nxt.tick:
			ins.fuse = fuseJump
		case nxt.op == opBin:
			ins.fuse = fuseBin
		}
	}
}

// collectVars pre-registers every named variable in body, in
// deterministic first-appearance order.
func collectVars(c *compiler, body []Stmt) {
	var expr func(e Expr)
	expr = func(e Expr) {
		switch ex := e.(type) {
		case Var:
			c.reg(ex.Name)
		case Bin:
			expr(ex.A)
			expr(ex.B)
		}
	}
	opt := func(e Expr) {
		if e != nil {
			expr(e)
		}
	}
	for _, s := range body {
		switch st := s.(type) {
		case Assign:
			expr(st.E)
			c.reg(st.Dst)
		case SetGlobal:
			expr(st.E)
		case Alloc:
			expr(st.Size)
			opt(st.N)
			opt(st.Align)
			opt(st.CCID)
			c.reg(st.Dst)
		case ReallocStmt:
			expr(st.Ptr)
			expr(st.Size)
			opt(st.CCID)
			c.reg(st.Dst)
		case FreeStmt:
			expr(st.Ptr)
		case Load:
			expr(st.Base)
			opt(st.Off)
			expr(st.N)
			c.reg(st.Dst)
		case Store:
			expr(st.Base)
			opt(st.Off)
			expr(st.Src)
			opt(st.N)
		case StoreVar:
			expr(st.Base)
			opt(st.Off)
			c.reg(st.Src)
		case StoreBytes:
			expr(st.Base)
			opt(st.Off)
		case Memcpy:
			expr(st.Dst)
			expr(st.Src)
			expr(st.N)
		case Memset:
			expr(st.Dst)
			expr(st.B)
			expr(st.N)
		case ReadInput:
			expr(st.N)
			c.reg(st.Dst)
		case Output:
			expr(st.Base)
			opt(st.Off)
			expr(st.N)
		case OutputVar:
			c.reg(st.Src)
		case If:
			expr(st.Cond)
			collectVars(c, st.Then)
			collectVars(c, st.Else)
		case While:
			expr(st.Cond)
			collectVars(c, st.Body)
		case Call:
			for _, a := range st.Args {
				expr(a)
			}
			if st.Dst != "" {
				c.reg(st.Dst)
			}
		case Return:
			opt(st.E)
		}
	}
}

// opnds compiles a statement's operand expressions in evaluation
// order. Leaf operands (constants, variables) become direct operand
// encodings consumed by the superinstruction; compound operands are
// materialized into temporaries by discrete instructions. Because the
// tree-walker checks a variable's definedness the moment it evaluates
// it, any pending variable operands are pinned with opCheckVar before
// a later compound operand's instructions run — preserving the exact
// error order for malformed programs at zero cost to well-formed hot
// paths (leaf-only statements emit a single superinstruction).
type opnds struct {
	c       *compiler
	pending []int32
}

func (o *opnds) operand(e Expr) (int32, error) {
	switch ex := e.(type) {
	case Const:
		return o.c.konst(ex.V), nil
	case Var:
		r := o.c.reg(ex.Name)
		o.pending = append(o.pending, r)
		return r, nil
	default:
		o.flush()
		t := o.c.temp()
		if err := o.c.compileExprTo(t, e); err != nil {
			return 0, err
		}
		return t, nil
	}
}

// optional compiles a possibly-nil operand; nil yields the fallback
// constant (which evaluation-order-wise matches the tree-walker's
// "absent means default, unevaluated" handling, since constants are
// effect-free).
func (o *opnds) optional(e Expr, fallback uint64) (int32, error) {
	if e == nil {
		return o.c.konst(fallback), nil
	}
	return o.operand(e)
}

func (o *opnds) flush() {
	for _, r := range o.pending {
		o.c.emit(instr{op: opCheckVar, a: r, dst: opndNone, b: opndNone, c: opndNone})
	}
	o.pending = o.pending[:0]
}

// compileExprTo lowers an expression into a destination register.
func (c *compiler) compileExprTo(dst int32, e Expr) error {
	switch ex := e.(type) {
	case Const:
		c.emit(instr{op: opLoadK, dst: dst, a: c.konst(ex.V), b: opndNone, c: opndNone})
	case Var:
		c.emit(instr{op: opMove, dst: dst, a: c.reg(ex.Name), b: opndNone, c: opndNone})
	case InputLen:
		c.emit(instr{op: opInputLen, dst: dst, a: opndNone, b: opndNone, c: opndNone})
	case InputRemaining:
		c.emit(instr{op: opInputRem, dst: dst, a: opndNone, b: opndNone, c: opndNone})
	case Global:
		c.emit(instr{op: opGlobalGet, dst: dst, aux: c.global(ex.Name), a: opndNone, b: opndNone, c: opndNone})
	case Bin:
		oc := opnds{c: c}
		a, err := oc.operand(ex.A)
		if err != nil {
			return err
		}
		b, err := oc.operand(ex.B)
		if err != nil {
			return err
		}
		// Unknown operators are compiled through and rejected by the
		// runtime ALU with the tree-walker's exact error, so dead
		// malformed code behaves identically on both engines.
		c.emit(instr{op: opBin, dst: dst, a: a, b: b, c: opndNone, bop: ex.Op})
	default:
		return fmt.Errorf("prog %s: unknown expression %T", c.out.p.Name, e)
	}
	return nil
}

// compileBody lowers a statement list.
func (c *compiler) compileBody(body []Stmt) error {
	for _, s := range body {
		if err := c.compileStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) compileStmt(s Stmt) error {
	stmtStart := int32(len(c.out.code))
	c.curTemp = 0
	if err := c.compileStmtInner(s); err != nil {
		return err
	}
	// The first instruction of the statement carries the tick (every
	// statement emits at least one instruction).
	c.out.code[stmtStart].tick = true
	return nil
}

func (c *compiler) compileStmtInner(s Stmt) error {
	switch st := s.(type) {
	case Nop:
		c.emit(instr{op: opNop, dst: opndNone, a: opndNone, b: opndNone, c: opndNone})

	case Assign:
		return c.compileExprTo(c.reg(st.Dst), st.E)

	case SetGlobal:
		oc := opnds{c: c}
		src, err := oc.operand(st.E)
		if err != nil {
			return err
		}
		c.emit(instr{op: opGlobalSet, aux: c.global(st.Dst), a: src, dst: opndNone, b: opndNone, c: opndNone})

	case Alloc:
		oc := opnds{c: c}
		size, err := oc.operand(st.Size)
		if err != nil {
			return err
		}
		n, err := oc.optional(st.N, 1)
		if err != nil {
			return err
		}
		align, err := oc.optional(st.Align, 0)
		if err != nil {
			return err
		}
		ccid := opndNone
		if st.CCID != nil {
			if ccid, err = oc.operand(st.CCID); err != nil {
				return err
			}
		}
		rec := allocRec{
			fn: st.Fn, byFn: st.Fn, dst: c.reg(st.Dst), ptr: opndNone,
			size: size, n: n, align: align, ccid: ccid,
			siteID: st.site, ic: c.newIC(),
		}
		if c.out.coder != nil {
			rec.upd = c.out.coder.CompileSite(st.site)
		}
		c.out.allocs = append(c.out.allocs, rec)
		c.emit(instr{op: opAlloc, aux: int32(len(c.out.allocs) - 1), dst: opndNone, a: opndNone, b: opndNone, c: opndNone})

	case ReallocStmt:
		oc := opnds{c: c}
		ptr, err := oc.operand(st.Ptr)
		if err != nil {
			return err
		}
		size, err := oc.operand(st.Size)
		if err != nil {
			return err
		}
		ccid := opndNone
		if st.CCID != nil {
			if ccid, err = oc.operand(st.CCID); err != nil {
				return err
			}
		}
		rec := allocRec{
			fn: heapsim.FnRealloc, byFn: heapsim.FnRealloc, dst: c.reg(st.Dst),
			ptr: ptr, size: size, n: c.konst(1), align: c.konst(0), ccid: ccid,
			siteID: st.site, ic: c.newIC(), realloc: true,
		}
		if c.out.coder != nil {
			rec.upd = c.out.coder.CompileSite(st.site)
		}
		c.out.allocs = append(c.out.allocs, rec)
		c.emit(instr{op: opRealloc, aux: int32(len(c.out.allocs) - 1), dst: opndNone, a: opndNone, b: opndNone, c: opndNone})

	case FreeStmt:
		oc := opnds{c: c}
		ptr, err := oc.operand(st.Ptr)
		if err != nil {
			return err
		}
		c.emit(instr{op: opFree, a: ptr, dst: opndNone, b: opndNone, c: opndNone})

	case Load:
		oc := opnds{c: c}
		base, off, err := c.addr(&oc, st.Base, st.Off)
		if err != nil {
			return err
		}
		n, err := oc.operand(st.N)
		if err != nil {
			return err
		}
		c.emit(instr{op: opLoad, dst: c.reg(st.Dst), a: base, b: off, c: n})

	case Store:
		oc := opnds{c: c}
		base, off, err := c.addr(&oc, st.Base, st.Off)
		if err != nil {
			return err
		}
		src, err := oc.operand(st.Src)
		if err != nil {
			return err
		}
		n := opndNone // absent N stores the full 8 scalar bytes
		if st.N != nil {
			if n, err = oc.operand(st.N); err != nil {
				return err
			}
		}
		c.emit(instr{op: opStore, a: base, b: off, c: src, dst: n})

	case StoreVar:
		oc := opnds{c: c}
		base, off, err := c.addr(&oc, st.Base, st.Off)
		if err != nil {
			return err
		}
		c.emit(instr{op: opStoreVar, a: base, b: off, c: c.reg(st.Src), dst: opndNone})

	case StoreBytes:
		oc := opnds{c: c}
		base, off, err := c.addr(&oc, st.Base, st.Off)
		if err != nil {
			return err
		}
		c.out.datas = append(c.out.datas, Value{Bytes: st.Data})
		c.emit(instr{op: opStoreBytes, a: base, b: off, aux: int32(len(c.out.datas) - 1), dst: opndNone, c: opndNone})

	case Memcpy:
		oc := opnds{c: c}
		dst, err := oc.operand(st.Dst)
		if err != nil {
			return err
		}
		src, err := oc.operand(st.Src)
		if err != nil {
			return err
		}
		n, err := oc.operand(st.N)
		if err != nil {
			return err
		}
		c.emit(instr{op: opMemcpy, a: dst, b: src, c: n, dst: opndNone})

	case Memset:
		oc := opnds{c: c}
		dst, err := oc.operand(st.Dst)
		if err != nil {
			return err
		}
		b, err := oc.operand(st.B)
		if err != nil {
			return err
		}
		n, err := oc.operand(st.N)
		if err != nil {
			return err
		}
		c.emit(instr{op: opMemset, a: dst, b: b, c: n, dst: opndNone})

	case ReadInput:
		oc := opnds{c: c}
		n, err := oc.operand(st.N)
		if err != nil {
			return err
		}
		c.emit(instr{op: opReadInput, dst: c.reg(st.Dst), a: n, b: opndNone, c: opndNone})

	case Output:
		oc := opnds{c: c}
		base, off, err := c.addr(&oc, st.Base, st.Off)
		if err != nil {
			return err
		}
		n, err := oc.operand(st.N)
		if err != nil {
			return err
		}
		c.emit(instr{op: opOutput, a: base, b: off, c: n, dst: opndNone})

	case OutputVar:
		c.emit(instr{op: opOutputVar, c: c.reg(st.Src), dst: opndNone, a: opndNone, b: opndNone})

	case If:
		oc := opnds{c: c}
		cond, err := oc.operand(st.Cond)
		if err != nil {
			return err
		}
		br := c.emit(instr{op: opBr, a: cond, dst: opndNone, b: opndNone, c: opndNone})
		if err := c.compileBody(st.Then); err != nil {
			return err
		}
		if len(st.Else) == 0 {
			c.out.code[br].aux = int32(len(c.out.code))
			return nil
		}
		j := c.emit(instr{op: opJump, dst: opndNone, a: opndNone, b: opndNone, c: opndNone})
		c.out.code[br].aux = int32(len(c.out.code))
		if err := c.compileBody(st.Else); err != nil {
			return err
		}
		c.out.code[j].aux = int32(len(c.out.code))

	case While:
		// The statement tick (set by compileStmt on this opNop) models
		// execBlock's per-statement tick; each iteration then ticks
		// again at the condition head, matching the tree-walker's loop.
		c.emit(instr{op: opNop, dst: opndNone, a: opndNone, b: opndNone, c: opndNone})
		head := int32(len(c.out.code))
		c.curTemp = 0
		oc := opnds{c: c}
		cond, err := oc.operand(st.Cond)
		if err != nil {
			return err
		}
		br := c.emit(instr{op: opBr, a: cond, dst: opndNone, b: opndNone, c: opndNone})
		c.out.code[head].tick = true
		if err := c.compileBody(st.Body); err != nil {
			return err
		}
		c.emit(instr{op: opJump, aux: head, dst: opndNone, a: opndNone, b: opndNone, c: opndNone})
		c.out.code[br].aux = int32(len(c.out.code))

	case Call:
		oc := opnds{c: c}
		first := int32(len(c.out.callArgs))
		for _, a := range st.Args {
			opnd, err := oc.operand(a)
			if err != nil {
				return err
			}
			c.out.callArgs = append(c.out.callArgs, opnd)
		}
		dst := opndNone
		if st.Dst != "" {
			dst = c.reg(st.Dst)
		}
		rec := callRec{
			fnIdx: c.funcIdx[st.Callee], dst: dst,
			args: first, nargs: int32(len(st.Args)),
		}
		if c.out.coder != nil {
			rec.upd = c.out.coder.CompileSite(st.site)
		}
		c.out.calls = append(c.out.calls, rec)
		c.emit(instr{op: opCall, aux: int32(len(c.out.calls) - 1), dst: opndNone, a: opndNone, b: opndNone, c: opndNone})

	case Return:
		if st.E == nil {
			c.emit(instr{op: opRetVoid, a: opndNone, dst: opndNone, b: opndNone, c: opndNone})
			return nil
		}
		oc := opnds{c: c}
		v, err := oc.operand(st.E)
		if err != nil {
			return err
		}
		c.emit(instr{op: opRet, a: v, dst: opndNone, b: opndNone, c: opndNone})

	default:
		return fmt.Errorf("prog %s: unknown statement %T", c.out.p.Name, s)
	}
	return nil
}

// addr compiles the Base+Off operand pair shared by every addressed
// statement; a nil Off compiles to opndNone so the Machine issues
// exactly one use-point check, like the tree-walker's evalAddr.
func (c *compiler) addr(oc *opnds, base, off Expr) (int32, int32, error) {
	b, err := oc.operand(base)
	if err != nil {
		return 0, 0, err
	}
	if off == nil {
		return b, opndNone, nil
	}
	o, err := oc.operand(off)
	if err != nil {
		return 0, 0, err
	}
	return b, o, nil
}
