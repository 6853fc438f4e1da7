package campaign

import (
	"fmt"
	"math/rand"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
)

// GenConfig tunes the generator. The zero value is the campaign
// default.
type GenConfig struct {
	// Kinds restricts generation to the listed kinds (nil = all).
	Kinds []VulnKind
}

const (
	// maxFillerOps bounds the random statements emitted around the
	// vulnerable gadget on each side.
	maxFillerOps = 8
	// maxCallDepth bounds the call-chain depth above the vulnerable
	// function, so injected sites get nontrivial calling contexts for
	// the encoding to distinguish.
	maxCallDepth = 3
)

func (c GenConfig) withDefaults() GenConfig {
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds()
	}
	return c
}

// PlannedKind reports which vulnerability kind Generate will inject
// for seed under cfg, without building the program. The kind is the
// generator's first RNG draw, so the answer is exact (not heuristic);
// the policy experiment uses this to pick seeds of one kind at
// negligible cost before paying for generation.
func PlannedKind(seed uint64, cfg GenConfig) VulnKind {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(int64(seed)))
	return cfg.Kinds[rng.Intn(len(cfg.Kinds))]
}

// Generate builds the campaign case for one seed, deterministically:
// the same seed and config always yield byte-identical source and
// inputs. The program is assembled as AST, rendered through the
// progtext printer, and re-parsed, so every generated case also
// exercises the full text round trip and Generated.Source is the
// authoritative form.
//
// The generator maintains discipline invariants that make the ground
// truth machine-checkable across every matrix cell:
//
//   - Benign control flow only reads initialized, in-bounds memory, so
//     benign output is identical across engines, allocators, and
//     defense modes, and shadow analysis of a benign run is silent.
//   - Until the vulnerable gadget has run, no memory is freed and no
//     allocation can recycle or split chunks (malloc/calloc only), so
//     the gadget's back-to-back allocations are physically adjacent on
//     the boundary-tag heap and its free/realloc reuse patterns are
//     deterministic.
//   - Only the gadget dereferences attacker-derived values; filler
//     statements never depend on the input header.
func Generate(seed uint64, cfg GenConfig) (*Generated, error) {
	cfg = cfg.withDefaults()
	b := &builder{
		rng:   rand.New(rand.NewSource(int64(seed))),
		funcs: map[string]*prog.Func{},
	}
	kind := cfg.Kinds[b.rng.Intn(len(cfg.Kinds))]
	secret := []byte(fmt.Sprintf("S3CR%016XLEAK", seed))
	sentinel := []byte(fmt.Sprintf("S%07X", seed&0xFFFFFFF))

	b.funcs["vuln"] = &prog.Func{Name: "vuln", Params: []string{"n"}, Body: b.gadgetBody(kind, secret, sentinel)}
	depth := b.rng.Intn(maxCallDepth + 1)
	callee := "vuln"
	for i := depth; i >= 1; i-- {
		name := fmt.Sprintf("stage%d", i)
		var body []prog.Stmt
		if b.rng.Intn(2) == 0 {
			body = append(body, prog.Assign{Dst: "s", E: prog.Add(prog.V("n"), prog.C(uint64(i)))})
		}
		body = append(body, prog.Call{Callee: callee, Args: []prog.Expr{prog.V("n")}}, prog.Return{})
		b.funcs[name] = &prog.Func{Name: name, Params: []string{"n"}, Body: body}
		callee = name
	}

	main := []prog.Stmt{
		prog.ReadInput{Dst: "hdr", N: prog.C(1)},
		prog.Assign{Dst: "n", E: prog.V("hdr")},
	}
	// A guaranteed allocation before the gadget keeps the gadget's
	// buffers away from the very start of the address space (an
	// underflow read of a few bytes must hit mapped memory, not the
	// edge of the mapping).
	main = append(main, b.emitAlloc(false)...)
	for i, k := 0, 1+b.rng.Intn(maxFillerOps); i < k; i++ {
		main = append(main, b.emitFiller(false)...)
	}
	if b.rng.Intn(2) == 0 {
		main = append(main, prog.ReadInput{Dst: "tail", N: prog.InputRemaining{}}, prog.OutputVar{Src: "tail"})
	}
	main = append(main, prog.Call{Callee: callee, Args: []prog.Expr{prog.V("n")}})
	for i, k := 0, 1+b.rng.Intn(maxFillerOps); i < k; i++ {
		main = append(main, b.emitFiller(true)...)
	}
	// Epilogue: release every remaining filler buffer in random order
	// so benign runs leak nothing.
	b.rng.Shuffle(len(b.bufs), func(i, j int) { b.bufs[i], b.bufs[j] = b.bufs[j], b.bufs[i] })
	for _, buf := range b.bufs {
		main = append(main, prog.FreeStmt{Ptr: prog.V(buf.name)})
	}
	main = append(main, prog.Return{})
	b.funcs["main"] = &prog.Func{Name: "main", Body: main}

	ast := &prog.Program{Name: fmt.Sprintf("c%d", seed), Entry: "main", Funcs: b.funcs}
	src := progtext.Print(ast)
	parsed, err := progtext.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("campaign: seed %d: generated source does not parse: %w", seed, err)
	}

	benign, attack := b.inputs(kind)
	g := &Generated{
		Seed:    seed,
		Kind:    kind,
		Program: parsed,
		Source:  src,
		Benign:  benign,
		Attack:  attack,
	}
	if kind.Leaky() {
		g.Secret = secret
	}
	if kind.Clobbering() {
		g.Sentinel = sentinel
	}
	return g, nil
}

// builder accumulates generator state for one program.
type builder struct {
	rng     *rand.Rand
	nvars   int
	bufs    []genBuf // live, fully initialized filler buffers
	scalars []string // initialized scalar variables in main
	funcs   map[string]*prog.Func
	ndecoys int
}

type genBuf struct {
	name string
	size uint64
}

func (b *builder) fresh(prefix string) string {
	b.nvars++
	return fmt.Sprintf("%s%d", prefix, b.nvars)
}

func (b *builder) pickBuf() *genBuf {
	if len(b.bufs) == 0 {
		return nil
	}
	return &b.bufs[b.rng.Intn(len(b.bufs))]
}

var fillerSizes = []uint64{16, 24, 48, 56, 96, 144, 200, 256}

// emitAlloc allocates and fully initializes a filler buffer. Memalign
// is allowed only after the gadget has run: on the boundary-tag heap
// it trims its over-allocation back into the free bins, which would
// break the pre-gadget "bins are empty" adjacency guarantee.
func (b *builder) emitAlloc(postGadget bool) []prog.Stmt {
	size := fillerSizes[b.rng.Intn(len(fillerSizes))]
	name := b.fresh("buf")
	var alloc prog.Stmt
	choices := 2
	if postGadget {
		choices = 3
	}
	switch b.rng.Intn(choices) {
	case 0:
		alloc = prog.Alloc{Dst: name, Fn: heapsim.FnMalloc, Size: prog.C(size)}
	case 1:
		alloc = prog.Alloc{Dst: name, Fn: heapsim.FnCalloc, Size: prog.C(8), N: prog.C(size / 8)}
	default:
		align := uint64(32) << b.rng.Intn(2)
		alloc = prog.Alloc{Dst: name, Fn: heapsim.FnMemalign, Size: prog.C(size), Align: prog.C(align)}
	}
	b.bufs = append(b.bufs, genBuf{name: name, size: size})
	return []prog.Stmt{
		alloc,
		prog.Memset{Dst: prog.V(name), B: prog.C(uint64(b.rng.Intn(256))), N: prog.C(size)},
	}
}

func (b *builder) emitStore() []prog.Stmt {
	buf := b.pickBuf()
	if buf == nil {
		return b.emitArith()
	}
	w := uint64(1 + b.rng.Intn(8))
	off := uint64(b.rng.Intn(int(buf.size-w) + 1))
	return []prog.Stmt{prog.Store{Base: prog.V(buf.name), Off: prog.C(off), Src: prog.C(b.rng.Uint64()), N: prog.C(w)}}
}

func (b *builder) emitLoad() []prog.Stmt {
	buf := b.pickBuf()
	if buf == nil {
		return b.emitArith()
	}
	w := uint64(1 + b.rng.Intn(8))
	off := uint64(b.rng.Intn(int(buf.size-w) + 1))
	name := b.fresh("v")
	out := []prog.Stmt{prog.Load{Dst: name, Base: prog.V(buf.name), Off: prog.C(off), N: prog.C(w)}}
	b.scalars = append(b.scalars, name)
	if b.rng.Intn(2) == 0 {
		out = append(out, prog.OutputVar{Src: name})
	}
	return out
}

func (b *builder) randScalarExpr() prog.Expr {
	e := prog.Expr(prog.C(uint64(b.rng.Intn(1000))))
	if len(b.scalars) > 0 && b.rng.Intn(2) == 0 {
		e = prog.V(b.scalars[b.rng.Intn(len(b.scalars))])
	}
	switch b.rng.Intn(3) {
	case 0:
		return prog.Add(e, prog.C(uint64(b.rng.Intn(100))))
	case 1:
		return prog.Mul(e, prog.C(uint64(1+b.rng.Intn(16))))
	default:
		return prog.And(e, prog.C(0xFFFF))
	}
}

func (b *builder) emitArith() []prog.Stmt {
	// Build the expression before registering the destination: the
	// expression may only use already-defined scalars.
	e := b.randScalarExpr()
	name := b.fresh("v")
	b.scalars = append(b.scalars, name)
	return []prog.Stmt{prog.Assign{Dst: name, E: e}}
}

func (b *builder) emitGlobal() []prog.Stmt {
	e := b.randScalarExpr()
	gname := b.fresh("g")
	vname := b.fresh("v")
	b.scalars = append(b.scalars, vname)
	return []prog.Stmt{
		prog.SetGlobal{Dst: gname, E: e},
		prog.Assign{Dst: vname, E: prog.Global{Name: gname}},
	}
}

func (b *builder) emitOutput() []prog.Stmt {
	buf := b.pickBuf()
	if buf == nil {
		return b.emitArith()
	}
	w := uint64(1 + b.rng.Intn(16))
	if w > buf.size {
		w = buf.size
	}
	off := uint64(b.rng.Intn(int(buf.size-w) + 1))
	return []prog.Stmt{prog.Output{Base: prog.V(buf.name), Off: prog.C(off), N: prog.C(w)}}
}

func (b *builder) emitLoop() []prog.Stmt {
	buf := b.pickBuf()
	if buf == nil {
		return b.emitArith()
	}
	iters := uint64(2 + b.rng.Intn(6))
	if iters > buf.size {
		iters = buf.size
	}
	i := b.fresh("i")
	return []prog.Stmt{
		prog.Assign{Dst: i, E: prog.C(0)},
		prog.While{Cond: prog.Lt(prog.V(i), prog.C(iters)), Body: []prog.Stmt{
			prog.Store{Base: prog.V(buf.name), Off: prog.V(i), Src: prog.C(uint64(b.rng.Intn(256))), N: prog.C(1)},
			prog.Assign{Dst: i, E: prog.Add(prog.V(i), prog.C(1))},
		}},
	}
}

// emitIf branches on generator-chosen data (never the input header)
// and assigns the same variable on both arms so later uses are always
// initialized.
func (b *builder) emitIf() []prog.Stmt {
	cond := prog.Lt(b.randScalarExpr(), prog.C(uint64(b.rng.Intn(2000))))
	name := b.fresh("v")
	b.scalars = append(b.scalars, name)
	return []prog.Stmt{prog.If{
		Cond: cond,
		Then: []prog.Stmt{prog.Assign{Dst: name, E: prog.C(uint64(b.rng.Intn(100)))}},
		Else: []prog.Stmt{prog.Assign{Dst: name, E: prog.C(uint64(100 + b.rng.Intn(100)))}},
	}}
}

// emitDecoyCall adds call-graph breadth: decoy functions are pure
// arithmetic, so they widen the encoding space without touching the
// heap.
func (b *builder) emitDecoyCall() []prog.Stmt {
	if b.ndecoys == 0 || (b.ndecoys < 2 && b.rng.Intn(2) == 0) {
		b.ndecoys++
		dn := fmt.Sprintf("decoy%d", b.ndecoys)
		b.funcs[dn] = &prog.Func{Name: dn, Params: []string{"a"}, Body: []prog.Stmt{
			prog.Assign{Dst: "t", E: prog.Mul(prog.Add(prog.V("a"), prog.C(3)), prog.C(5))},
			prog.Return{E: prog.V("t")},
		}}
	}
	dn := fmt.Sprintf("decoy%d", 1+b.rng.Intn(b.ndecoys))
	r := b.fresh("v")
	b.scalars = append(b.scalars, r)
	return []prog.Stmt{prog.Call{Dst: r, Callee: dn, Args: []prog.Expr{prog.C(uint64(b.rng.Intn(50)))}}}
}

func (b *builder) emitFree() []prog.Stmt {
	if len(b.bufs) == 0 {
		return b.emitArith()
	}
	i := b.rng.Intn(len(b.bufs))
	buf := b.bufs[i]
	b.bufs = append(b.bufs[:i], b.bufs[i+1:]...)
	return []prog.Stmt{prog.FreeStmt{Ptr: prog.V(buf.name)}}
}

// emitRealloc grows a filler buffer in place (by name), then memsets
// the whole new extent so the realloc-grown bytes are initialized
// before any later read.
func (b *builder) emitRealloc() []prog.Stmt {
	if len(b.bufs) == 0 {
		return b.emitArith()
	}
	i := b.rng.Intn(len(b.bufs))
	b.bufs[i].size += uint64(8 + b.rng.Intn(64))
	name := b.bufs[i].name
	size := b.bufs[i].size
	return []prog.Stmt{
		prog.ReallocStmt{Dst: name, Ptr: prog.V(name), Size: prog.C(size)},
		prog.Memset{Dst: prog.V(name), B: prog.C(uint64(b.rng.Intn(256))), N: prog.C(size)},
	}
}

// emitFiller emits one random benign operation. Free and realloc are
// post-gadget only (see Generate's discipline invariants).
func (b *builder) emitFiller(postGadget bool) []prog.Stmt {
	type op func() []prog.Stmt
	ops := []op{
		func() []prog.Stmt { return b.emitAlloc(postGadget) },
		b.emitStore,
		b.emitStore,
		b.emitLoad,
		b.emitArith,
		b.emitGlobal,
		b.emitOutput,
		b.emitLoop,
		b.emitIf,
		b.emitDecoyCall,
	}
	if postGadget {
		ops = append(ops, b.emitFree, b.emitRealloc)
	}
	return ops[b.rng.Intn(len(ops))]()
}

// gadgetBody builds the vulnerable function. Parameter n is the
// attacker-controlled header byte: the benign input keeps every access
// in bounds, the attack input drives the injected site out of them.
func (b *builder) gadgetBody(kind VulnKind, secret, sentinel []byte) []prog.Stmt {
	switch kind {
	case OverflowRead:
		// Two adjacent mallocs; the output length is attacker-sized, so
		// n=96 reads across the chunk boundary into the secret.
		return []prog.Stmt{
			prog.Alloc{Dst: "vbuf", Fn: heapsim.FnMalloc, Size: prog.C(32)},
			prog.Memset{Dst: prog.V("vbuf"), B: prog.C(0x41), N: prog.C(32)},
			prog.Alloc{Dst: "vadj", Fn: heapsim.FnMalloc, Size: prog.C(32)},
			prog.Memset{Dst: prog.V("vadj"), B: prog.C(0), N: prog.C(32)},
			prog.StoreBytes{Base: prog.V("vadj"), Data: secret},
			prog.Output{Base: prog.V("vbuf"), N: prog.V("n")},
			prog.FreeStmt{Ptr: prog.V("vadj")},
			prog.FreeStmt{Ptr: prog.V("vbuf")},
		}
	case OverflowWrite:
		// Attacker-bounded byte-store loop; n=72 overwrites the
		// neighbor's metadata and its sentinel before it is output.
		return []prog.Stmt{
			prog.Alloc{Dst: "vbuf", Fn: heapsim.FnMalloc, Size: prog.C(32)},
			prog.Memset{Dst: prog.V("vbuf"), B: prog.C(0), N: prog.C(32)},
			prog.Alloc{Dst: "vadj", Fn: heapsim.FnMalloc, Size: prog.C(32)},
			prog.Memset{Dst: prog.V("vadj"), B: prog.C(0), N: prog.C(32)},
			prog.StoreBytes{Base: prog.V("vadj"), Data: sentinel},
			prog.Assign{Dst: "wi", E: prog.C(0)},
			prog.While{Cond: prog.Lt(prog.V("wi"), prog.V("n")), Body: []prog.Stmt{
				prog.Store{Base: prog.V("vbuf"), Off: prog.V("wi"), Src: prog.C(0x42), N: prog.C(1)},
				prog.Assign{Dst: "wi", E: prog.Add(prog.V("wi"), prog.C(1))},
			}},
			prog.Output{Base: prog.V("vadj"), N: prog.C(8)},
			prog.FreeStmt{Ptr: prog.V("vadj")},
			prog.FreeStmt{Ptr: prog.V("vbuf")},
		}
	case UnderflowRead:
		// off = 0-n wraps: n=8 reads the 8 bytes before the buffer.
		return []prog.Stmt{
			prog.Alloc{Dst: "vbuf", Fn: heapsim.FnMalloc, Size: prog.C(48)},
			prog.Memset{Dst: prog.V("vbuf"), B: prog.C(0x5A), N: prog.C(48)},
			prog.Assign{Dst: "voff", E: prog.Sub(prog.C(0), prog.V("n"))},
			prog.Output{Base: prog.V("vbuf"), Off: prog.V("voff"), N: prog.C(8)},
			prog.FreeStmt{Ptr: prog.V("vbuf")},
		}
	case UAFRead:
		// Premature free iff n!=0; the next same-size malloc reuses the
		// chunk (LIFO exact fit on the boundary-tag heap) and plants the
		// secret under the dangling pointer.
		return []prog.Stmt{
			prog.Alloc{Dst: "va", Fn: heapsim.FnMalloc, Size: prog.C(40)},
			prog.Memset{Dst: prog.V("va"), B: prog.C(0x61), N: prog.C(40)},
			prog.If{Cond: prog.Ne(prog.V("n"), prog.C(0)), Then: []prog.Stmt{prog.FreeStmt{Ptr: prog.V("va")}}},
			prog.Alloc{Dst: "vb", Fn: heapsim.FnMalloc, Size: prog.C(40)},
			prog.Memset{Dst: prog.V("vb"), B: prog.C(0), N: prog.C(40)},
			prog.StoreBytes{Base: prog.V("vb"), Data: secret},
			prog.Output{Base: prog.V("va"), N: prog.C(24)},
			prog.If{Cond: prog.Eq(prog.V("n"), prog.C(0)), Then: []prog.Stmt{prog.FreeStmt{Ptr: prog.V("va")}}},
			prog.FreeStmt{Ptr: prog.V("vb")},
		}
	case UAFWrite:
		// Same reuse setup, but the dangling pointer clobbers the new
		// owner's sentinel before it is output.
		return []prog.Stmt{
			prog.Alloc{Dst: "va", Fn: heapsim.FnMalloc, Size: prog.C(40)},
			prog.Memset{Dst: prog.V("va"), B: prog.C(0x61), N: prog.C(40)},
			prog.If{Cond: prog.Ne(prog.V("n"), prog.C(0)), Then: []prog.Stmt{prog.FreeStmt{Ptr: prog.V("va")}}},
			prog.Alloc{Dst: "vb", Fn: heapsim.FnMalloc, Size: prog.C(40)},
			prog.Memset{Dst: prog.V("vb"), B: prog.C(0), N: prog.C(40)},
			prog.StoreBytes{Base: prog.V("vb"), Data: sentinel},
			prog.Store{Base: prog.V("va"), Src: prog.C(0x4444444444444444), N: prog.C(8)},
			prog.Output{Base: prog.V("vb"), N: prog.C(8)},
			prog.If{Cond: prog.Eq(prog.V("n"), prog.C(0)), Then: []prog.Stmt{prog.FreeStmt{Ptr: prog.V("va")}}},
			prog.FreeStmt{Ptr: prog.V("vb")},
		}
	case DoubleFree:
		return []prog.Stmt{
			prog.Alloc{Dst: "va", Fn: heapsim.FnMalloc, Size: prog.C(40)},
			prog.Memset{Dst: prog.V("va"), B: prog.C(0x33), N: prog.C(40)},
			prog.Output{Base: prog.V("va"), N: prog.C(8)},
			prog.FreeStmt{Ptr: prog.V("va")},
			prog.If{Cond: prog.Ne(prog.V("n"), prog.C(0)), Then: []prog.Stmt{prog.FreeStmt{Ptr: prog.V("va")}}},
		}
	case UninitRead:
		// The secret sits at offset 16..40 of the freed chunk — past
		// the free-list link words the allocator writes into the
		// payload — so a native exact-fit reuse leaks it through the
		// uninitialized output window unless the benign path memsets.
		return []prog.Stmt{
			prog.Alloc{Dst: "vc", Fn: heapsim.FnMalloc, Size: prog.C(64)},
			prog.Memset{Dst: prog.V("vc"), B: prog.C(0), N: prog.C(64)},
			prog.StoreBytes{Base: prog.V("vc"), Off: prog.C(16), Data: secret},
			prog.FreeStmt{Ptr: prog.V("vc")},
			prog.Alloc{Dst: "vd", Fn: heapsim.FnMalloc, Size: prog.C(64)},
			prog.If{Cond: prog.Eq(prog.V("n"), prog.C(0)), Then: []prog.Stmt{
				prog.Memset{Dst: prog.V("vd"), B: prog.C(0x20), N: prog.C(48)},
			}},
			prog.Output{Base: prog.V("vd"), N: prog.C(48)},
			prog.FreeStmt{Ptr: prog.V("vd")},
		}
	default:
		panic(fmt.Sprintf("campaign: no gadget for %v", kind))
	}
}

// inputs derives the benign/attack input pair. Both share the same
// random tail so any echoed bytes compare equal within an input class.
func (b *builder) inputs(kind VulnKind) (benign, attack []byte) {
	var benByte, atkByte byte
	switch kind {
	case OverflowRead:
		benByte = byte(8 + b.rng.Intn(25)) // within the 32-byte buffer
		atkByte = 96                       // across the neighbor's payload
	case OverflowWrite:
		benByte = byte(8 + b.rng.Intn(25))
		atkByte = 72
	case UnderflowRead:
		benByte = 0 // offset 0-0 = in bounds
		atkByte = 8 // 8 bytes before the buffer
	default:
		// UAF / double-free / uninit kinds branch on n != 0.
		benByte = 0
		atkByte = byte(1 + b.rng.Intn(255))
	}
	extra := make([]byte, b.rng.Intn(5))
	b.rng.Read(extra)
	benign = append([]byte{benByte}, extra...)
	attack = append([]byte{atkByte}, extra...)
	return benign, attack
}
