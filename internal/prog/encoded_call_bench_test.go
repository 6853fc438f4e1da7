package prog

// Benchmarks and allocation pins for the encoded-call hot path: a
// program whose inner loop calls through Incremental-instrumented
// sites, so every iteration exercises the per-site V update, the V
// save/restore discipline, and the allocator round trip.

import (
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
)

// encodedCallProgram loops iters times calling two allocating helpers.
// main's two call edges both reach malloc, so main is a true branching
// node and the Incremental plan instruments exactly those sites.
func encodedCallProgram(iters uint64) *Program {
	return MustLink(&Program{
		Name: "encoded-call",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Assign{Dst: "i", E: C(0)},
				Assign{Dst: "acc", E: C(0)},
				While{Cond: Bin{Op: OpLt, A: V("i"), B: C(iters)}, Body: []Stmt{
					Call{Dst: "x", Callee: "left"},
					Call{Dst: "y", Callee: "right"},
					Assign{Dst: "acc", E: Bin{Op: OpAdd, A: V("acc"), B: Bin{Op: OpXor, A: V("x"), B: V("y")}}},
					Assign{Dst: "i", E: Bin{Op: OpAdd, A: V("i"), B: C(1)}},
				}},
				Return{E: V("acc")},
			}},
			"left": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(32)},
				FreeStmt{Ptr: V("p")},
				Return{E: C(1)},
			}},
			"right": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(48)},
				FreeStmt{Ptr: V("p")},
				Return{E: C(2)},
			}},
		},
	})
}

// encodedCallDenseProgram is the dispatch-bound variant: the helpers
// statically reach malloc (so the plan instruments every call site and
// each call pays a SiteUpdate), but the allocation hides behind a
// branch the loop counter never satisfies, so the allocator is cold
// and the measured time is dominated by dispatch, encoded-call
// updates, and arithmetic — the part of the pipeline the engines
// actually differ on.
func encodedCallDenseProgram(iters uint64) *Program {
	never := Bin{Op: OpGt, A: V("x"), B: C(1 << 40)}
	body := func(ret Expr) []Stmt {
		return []Stmt{
			If{Cond: never, Then: []Stmt{
				Alloc{Dst: "p", Size: C(16)},
				FreeStmt{Ptr: V("p")},
			}},
			Return{E: ret},
		}
	}
	return MustLink(&Program{
		Name: "encoded-call-dense",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Assign{Dst: "i", E: C(0)},
				Assign{Dst: "acc", E: C(0)},
				While{Cond: Bin{Op: OpLt, A: V("i"), B: C(iters)}, Body: []Stmt{
					Call{Dst: "acc", Callee: "mixa", Args: []Expr{V("acc"), V("i")}},
					Call{Dst: "acc", Callee: "mixb", Args: []Expr{V("acc"), V("i")}},
					Assign{Dst: "i", E: Bin{Op: OpAdd, A: V("i"), B: C(1)}},
				}},
				Return{E: V("acc")},
			}},
			"mixa": {Params: []string{"a", "x"}, Body: body(
				Bin{Op: OpXor, A: Bin{Op: OpMul, A: V("a"), B: C(33)}, B: V("x")})},
			"mixb": {Params: []string{"a", "x"}, Body: body(
				Bin{Op: OpMul, A: Bin{Op: OpAdd, A: V("a"), B: V("x")}, B: C(17)})},
		},
	})
}

func encodedCallCoder(tb testing.TB, p *Program) *encoding.Coder {
	tb.Helper()
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		tb.Fatal(err)
	}
	if plan.NumSites() == 0 {
		tb.Fatal("encoded-call program has no instrumented sites; benchmark would not exercise updates")
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		tb.Fatal(err)
	}
	return coder
}

func encodedCallBackend(tb testing.TB) *NativeBackend {
	tb.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	backend, err := NewNativeBackend(space)
	if err != nil {
		tb.Fatal(err)
	}
	return backend
}

// BenchmarkEncodedCall measures a full instrumented run (256 loop
// iterations, two encoded calls plus an alloc/free pair each) on the
// tree-walker and on the compiled engine. The per-call encoding update
// itself is a precompiled SiteUpdate application — branch, multiply,
// add — with no allocation.
func BenchmarkEncodedCall(b *testing.B) {
	const iters = 256
	b.Run("tree", func(b *testing.B) {
		p := encodedCallProgram(iters)
		coder := encodedCallCoder(b, p)
		it, err := New(p, Config{Backend: encodedCallBackend(b), Coder: coder})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := it.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) { benchMachine(b, encodedCallProgram(iters)) })
}

// benchMachine times steady-state Run of p on a Machine. One
// untimed run first warms the buffers, so the loop measures the steady
// state rather than compilation.
func benchMachine(b *testing.B, p *Program) {
	coder := encodedCallCoder(b, p)
	m := newTestMachine(b, p, Config{Backend: encodedCallBackend(b), Coder: coder})
	if _, err := m.Run(nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodedCallDense measures the dispatch-bound encoded-call
// path (see encodedCallDenseProgram): every call site pays a
// SiteUpdate, the allocator stays cold, and the spread between the
// engines is pure interpretation overhead.
func BenchmarkEncodedCallDense(b *testing.B) {
	const iters = 512
	p := encodedCallDenseProgram(iters)
	b.Run("tree", func(b *testing.B) {
		coder := encodedCallCoder(b, p)
		it, err := New(p, Config{Backend: encodedCallBackend(b), Coder: coder})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := it.Run(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) { benchMachine(b, p) })
}

// TestEncodedCallVMZeroAlloc pins the compiled engine's encoded-call
// path at zero: steady-state Run of the instrumented program on a
// Machine — SiteUpdate arithmetic, frame recycle, alloc/free — must
// allocate nothing but the Result it returns (the program writes no
// output).
func TestEncodedCallVMZeroAlloc(t *testing.T) {
	p := encodedCallProgram(512)
	coder := encodedCallCoder(t, p)
	vm := newTestMachine(t, p, Config{Backend: encodedCallBackend(t), Coder: coder})
	var res *Result
	var err error
	if res, err = vm.Run(nil); err != nil {
		t.Fatal(err)
	}
	if res.Crashed() {
		t.Fatalf("warmup crashed: %v", res.Fault)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if res, err = vm.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("steady-state encoded Run allocates %.1f objects/run, want 1 (the Result)", allocs)
	}
}

// TestEncodedCallMachineZeroAlloc extends the encoded-call pin to the
// dispatch-bound dense variant, on a Machine handed out by a Prepared
// that carries the coder (the fleet's shape) after another Machine
// from it already ran: baked SiteUpdate arithmetic on every call,
// frame recycle and the cold allocation branch must allocate nothing
// but the Result Run returns.
func TestEncodedCallMachineZeroAlloc(t *testing.T) {
	p := encodedCallDenseProgram(512)
	coder := encodedCallCoder(t, p)
	pp, err := Prepare(p, Config{Engine: EngineCompiled, Coder: coder})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	var ms [2]*Machine
	for i := range ms {
		ex, err := pp.NewExec(encodedCallBackend(t))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = ex.(*Machine)
		if res, err = ms[i].Run(nil); err != nil {
			t.Fatal(err)
		}
		if res.Crashed() {
			t.Fatalf("warmup crashed: %v", res.Fault)
		}
	}
	want := res.Returned.Uint()
	m := ms[1]
	allocs := testing.AllocsPerRun(20, func() {
		if res, err = m.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("steady-state dense encoded Run allocates %.1f objects/run, want 1 (the Result)", allocs)
	}
	if got := res.Returned.Uint(); got != want {
		t.Errorf("steady-state run returned %d, want %d", got, want)
	}
}
