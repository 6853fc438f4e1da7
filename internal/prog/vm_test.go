package prog

// Differential verification of every row of the conformance table
// (engineConfigs) against the tree-walking reference interpreter:
// every observable of Run — output, return value, fault, statistics,
// and both interpreter- and backend-side cycle accounting — must be
// bit-identical, across
// backends, encoding schemes and encoders, crash paths, and malformed
// programs (where the error strings themselves must match). See also
// fuzz_test.go (randomized programs) and the cross-package suites in
// internal/experiments and internal/fleet.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
)

// newTestMachine prepares p for the compiled engine and builds one
// Machine over cfg.Backend.
func newTestMachine(t testing.TB, p *Program, cfg Config) *Machine {
	t.Helper()
	cfg.Engine = EngineCompiled
	ex, err := NewExec(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ex.(*Machine)
}

func newNative(t *testing.T) HeapBackend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewNativeBackend(space)
	if err != nil {
		t.Fatal(err)
	}
	return backend
}

// assertSameRun compares one execution of the tree-walker (tr) with
// one of a Machine (vr).
func assertSameRun(t *testing.T, label string, tr, vr *Result, terr, verr error) {
	t.Helper()
	if (terr != nil) != (verr != nil) {
		t.Fatalf("%s: tree err = %v, machine err = %v", label, terr, verr)
	}
	if terr != nil {
		if terr.Error() != verr.Error() {
			t.Fatalf("%s: error mismatch\ntree:    %v\nmachine: %v", label, terr, verr)
		}
		return
	}
	if !bytes.Equal(tr.Output, vr.Output) {
		t.Errorf("%s: output mismatch\ntree:    %x\nmachine: %x", label, tr.Output, vr.Output)
	}
	if !bytes.Equal(tr.Returned.Bytes, vr.Returned.Bytes) {
		t.Errorf("%s: returned bytes mismatch: tree %x machine %x", label, tr.Returned.Bytes, vr.Returned.Bytes)
	}
	if !bytes.Equal(tr.Returned.Valid, vr.Returned.Valid) {
		t.Errorf("%s: returned V-bits mismatch: tree %x machine %x", label, tr.Returned.Valid, vr.Returned.Valid)
	}
	if len(tr.Returned.Origin) != len(vr.Returned.Origin) {
		t.Errorf("%s: returned origin mismatch: tree %v machine %v", label, tr.Returned.Origin, vr.Returned.Origin)
	} else {
		for i := range tr.Returned.Origin {
			if tr.Returned.Origin[i] != vr.Returned.Origin[i] {
				t.Errorf("%s: returned origin[%d]: tree %d machine %d", label, i, tr.Returned.Origin[i], vr.Returned.Origin[i])
				break
			}
		}
	}
	if (tr.Fault != nil) != (vr.Fault != nil) {
		t.Fatalf("%s: fault mismatch: tree %v machine %v", label, tr.Fault, vr.Fault)
	}
	if tr.Fault != nil && tr.Fault.Error() != vr.Fault.Error() {
		t.Errorf("%s: fault text mismatch\ntree:    %v\nmachine: %v", label, tr.Fault, vr.Fault)
	}
	if tr.Steps != vr.Steps {
		t.Errorf("%s: steps: tree %d machine %d", label, tr.Steps, vr.Steps)
	}
	if tr.Cycles != vr.Cycles {
		t.Errorf("%s: cycles: tree %d machine %d", label, tr.Cycles, vr.Cycles)
	}
	if tr.InterpCycles != vr.InterpCycles {
		t.Errorf("%s: interp cycles: tree %d machine %d", label, tr.InterpCycles, vr.InterpCycles)
	}
	if tr.EncUpdates != vr.EncUpdates {
		t.Errorf("%s: enc updates: tree %d machine %d", label, tr.EncUpdates, vr.EncUpdates)
	}
	if tr.Allocs != vr.Allocs || tr.Frees != vr.Frees {
		t.Errorf("%s: allocs/frees: tree %d/%d machine %d/%d", label, tr.Allocs, tr.Frees, vr.Allocs, vr.Frees)
	}
	if tr.AllocsByFn != vr.AllocsByFn {
		t.Errorf("%s: allocs by fn: tree %v machine %v", label, tr.AllocsByFn, vr.AllocsByFn)
	}
}

// diffEngines runs the same input sequence through every row of
// engineConfigs — each over its own backend from mk, so heap state
// evolves independently but identically — and requires every row to
// match the tree reference bit for bit, including the backends' total
// cycle accounts after every request.
func diffEngines(t *testing.T, p *Program, coder *encoding.Coder, cfg Config, mk func(t *testing.T) HeapBackend, inputs [][]byte) {
	t.Helper()
	cfg.Coder = coder
	exs := make([]Exec, len(engineConfigs))
	backends := make([]HeapBackend, len(engineConfigs))
	for i, ec := range engineConfigs {
		ecfg := cfg
		ecfg.Engine, ecfg.Backend = ec.Engine, mk(t)
		ex, err := NewExec(p, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		exs[i], backends[i] = ex, ecfg.Backend
	}

	for i, in := range inputs {
		tr, terr := exs[0].Run(in)
		label := strings.TrimSpace(p.Name) + "#" + string(rune('0'+i))
		for j := 1; j < len(exs); j++ {
			r, err := exs[j].Run(in)
			assertSameRun(t, label+"/"+engineConfigs[j].Name, tr, r, terr, err)
			if tc, c := backends[0].Cycles(), backends[j].Cycles(); tc != c {
				t.Errorf("%s: backend cycles diverge: tree %d %s %d", label, tc, engineConfigs[j].Name, c)
			}
		}
	}
}

// diffProgArith exercises every binary operator (including division
// and modulo by zero and oversized shifts), globals, input-length
// expressions, and nested expression trees that force temporaries.
func diffProgArith() *Program {
	ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr, OpLt, OpLe, OpEq, OpNe, OpGt, OpGe}
	body := []Stmt{
		ReadInput{Dst: "a", N: C(8)},
		ReadInput{Dst: "b", N: C(8)},
	}
	for _, op := range ops {
		body = append(body,
			Assign{Dst: "r", E: Bin{Op: op, A: V("a"), B: V("b")}},
			OutputVar{Src: "r"},
		)
	}
	body = append(body,
		// Division/modulo by zero and a shift of 64+ bits.
		Assign{Dst: "z", E: Bin{Op: OpDiv, A: V("a"), B: C(0)}},
		Assign{Dst: "z", E: Bin{Op: OpMod, A: V("z"), B: C(0)}},
		Assign{Dst: "z", E: Bin{Op: OpShl, A: V("a"), B: C(200)}},
		OutputVar{Src: "z"},
		// Deep expression tree: temporaries on both operand sides.
		Assign{Dst: "t", E: Bin{Op: OpAdd,
			A: Bin{Op: OpMul, A: Bin{Op: OpAdd, A: V("a"), B: C(3)}, B: V("b")},
			B: Bin{Op: OpXor, A: V("b"), B: Bin{Op: OpSub, A: V("a"), B: C(1)}}}},
		OutputVar{Src: "t"},
		// Globals: read-before-write defaults to zero.
		Assign{Dst: "g0", E: Global{Name: "counter"}},
		OutputVar{Src: "g0"},
		SetGlobal{Dst: "counter", E: Bin{Op: OpAdd, A: Global{Name: "counter"}, B: C(7)}},
		Assign{Dst: "g1", E: Global{Name: "counter"}},
		OutputVar{Src: "g1"},
		// Input introspection.
		Assign{Dst: "il", E: InputLen{}},
		Assign{Dst: "ir", E: InputRemaining{}},
		OutputVar{Src: "il"},
		OutputVar{Src: "ir"},
		Return{E: Bin{Op: OpAdd, A: V("t"), B: V("il")}},
	)
	return MustLink(&Program{
		Name:  "diff-arith",
		Funcs: map[string]*Func{"main": {Body: body}},
	})
}

// diffProgHeap exercises every heap and memory statement: all alloc
// APIs, realloc, free, loads and stores in every flavor (including nil
// and non-nil offsets, partial-width stores, store-bytes), memcpy,
// memset, and output from memory.
func diffProgHeap() *Program {
	return MustLink(&Program{
		Name: "diff-heap",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(64)},
				Alloc{Dst: "q", Fn: heapsim.FnCalloc, Size: C(8), N: C(4)},
				Alloc{Dst: "r", Fn: heapsim.FnMemalign, Size: C(32), Align: C(64)},
				Alloc{Dst: "x", Size: C(16), CCID: C(0xABCD)},
				Memset{Dst: V("p"), B: C(0x5A), N: C(64)},
				Store{Base: V("p"), Src: C(0x1122334455667788)},
				Store{Base: V("p"), Off: C(8), Src: C(0xDEAD), N: C(2)},
				StoreBytes{Base: V("p"), Off: C(10), Data: []byte("hello")},
				Assign{Dst: "v", E: C(0xCAFEBABE)},
				StoreVar{Base: V("p"), Off: C(16), Src: "v"},
				Load{Dst: "w", Base: V("p"), N: C(24)},
				OutputVar{Src: "w"},
				Load{Dst: "w8", Base: V("p"), Off: C(8), N: C(8)},
				OutputVar{Src: "w8"},
				Memcpy{Dst: V("q"), Src: V("p"), N: C(24)},
				Output{Base: V("q"), N: C(24)},
				ReallocStmt{Dst: "p2", Ptr: V("p"), Size: C(128)},
				Output{Base: V("p2"), Off: C(10), N: C(5)},
				ReadInput{Dst: "in", N: C(4)},
				StoreVar{Base: V("r"), Src: "in"},
				Output{Base: V("r"), N: C(4)},
				FreeStmt{Ptr: V("p2")},
				FreeStmt{Ptr: V("q")},
				FreeStmt{Ptr: V("r")},
				FreeStmt{Ptr: V("x")},
				Return{E: V("w")},
			}},
		},
	})
}

// diffProgCalls exercises the call superinstructions: argument
// passing, return values into variables, void calls that still define
// their destination, recursion, and calls under branches and loops.
func diffProgCalls() *Program {
	return MustLink(&Program{
		Name: "diff-calls",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				ReadInput{Dst: "n", N: C(1)},
				Call{Dst: "s", Callee: "sum", Args: []Expr{V("n"), C(0)}},
				OutputVar{Src: "s"},
				Call{Dst: "void", Callee: "noop"},
				OutputVar{Src: "void"},
				Assign{Dst: "i", E: C(0)},
				While{Cond: Bin{Op: OpLt, A: V("i"), B: C(3)}, Body: []Stmt{
					Call{Dst: "h", Callee: "hot", Args: []Expr{V("i")}},
					OutputVar{Src: "h"},
					Assign{Dst: "i", E: Bin{Op: OpAdd, A: V("i"), B: C(1)}},
				}},
				If{Cond: V("s"), Then: []Stmt{
					Call{Dst: "t", Callee: "hot", Args: []Expr{V("s")}},
					OutputVar{Src: "t"},
				}, Else: []Stmt{
					Call{Dst: "t", Callee: "hot", Args: []Expr{C(99)}},
					OutputVar{Src: "t"},
				}},
				Return{E: V("s")},
			}},
			"sum": {Params: []string{"n", "acc"}, Body: []Stmt{
				If{Cond: V("n"), Then: []Stmt{
					Call{Dst: "r", Callee: "sum", Args: []Expr{
						Bin{Op: OpSub, A: V("n"), B: C(1)},
						Bin{Op: OpAdd, A: V("acc"), B: V("n")},
					}},
					Return{E: V("r")},
				}},
				Return{E: V("acc")},
			}},
			"hot": {Params: []string{"x"}, Body: []Stmt{
				Alloc{Dst: "b", Size: C(24)},
				Store{Base: V("b"), Src: Bin{Op: OpMul, A: V("x"), B: C(17)}},
				Load{Dst: "y", Base: V("b"), N: C(8)},
				FreeStmt{Ptr: V("b")},
				Return{E: V("y")},
			}},
			"noop": {Body: []Stmt{Nop{}}},
		},
	})
}

// diffProgCrash faults: an out-of-space load terminates the run with
// Result.Fault on both engines, with identical partial output and
// statistics.
func diffProgCrash() *Program {
	return MustLink(&Program{
		Name: "diff-crash",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(16)},
				Store{Base: V("p"), Src: C(42)},
				Output{Base: V("p"), N: C(8)},
				Load{Dst: "boom", Base: C(1 << 40), N: C(8)},
				OutputVar{Src: "boom"}, // never reached
			}},
		},
	})
}

func TestVMDifferentialNative(t *testing.T) {
	inputs := [][]byte{
		nil,
		{1},
		{5},
		bytes.Repeat([]byte{0xA5}, 16),
		[]byte("hello world, heap"),
	}
	for _, p := range []*Program{diffProgArith(), diffProgHeap(), diffProgCalls(), diffProgCrash()} {
		t.Run(p.Name, func(t *testing.T) {
			diffEngines(t, p, nil, Config{}, newNative, inputs)
		})
	}
}

// TestVMDifferentialEncoded runs the context-sensitive corpus programs
// under every scheme x encoder combination and additionally requires
// the allocation-time CCID streams to be identical (via a recording
// wrapper around the native backend).
func TestVMDifferentialEncoded(t *testing.T) {
	for _, p := range []*Program{ccidProgram(), diffProgCalls(), diffProgHeap(), encodedCallProgram(8), encodedCallDenseProgram(8)} {
		for _, scheme := range encoding.AllSchemes() {
			for _, kind := range encoding.AllEncoders() {
				plan, err := encoding.NewPlan(scheme, p.Graph(), p.Targets())
				if err != nil {
					t.Fatal(err)
				}
				coder, err := encoding.NewCoder(kind, p.Graph(), plan)
				if err != nil {
					t.Fatal(err)
				}
				var recs []*recordingBackend
				mk := func(t *testing.T) HeapBackend {
					rb := &recordingBackend{HeapBackend: newNative(t)}
					recs = append(recs, rb)
					return rb
				}
				diffEngines(t, p, coder, Config{}, mk, [][]byte{{3}, {0}, {7}})
				if len(recs) != len(engineConfigs) {
					t.Fatalf("expected %d backends, got %d", len(engineConfigs), len(recs))
				}
				tree := recs[0]
				for ei, eng := range recs[1:] {
					name := engineConfigs[ei+1].Name
					if len(tree.ccids) != len(eng.ccids) {
						t.Fatalf("%s %v/%v: ccid stream lengths differ: tree %d %s %d",
							p.Name, scheme, kind, len(tree.ccids), name, len(eng.ccids))
					}
					for i := range tree.ccids {
						if tree.ccids[i] != eng.ccids[i] {
							t.Errorf("%s %v/%v: ccid[%d]: tree %#x %s %#x",
								p.Name, scheme, kind, i, tree.ccids[i], name, eng.ccids[i])
						}
					}
				}
			}
		}
	}
}

// TestVMErrorsMatchTree: malformed programs abort every engine with
// the exact same error text, including the evaluation-order-sensitive
// undefined-variable cases the compiler pins with opCheckVar.
func TestVMErrorsMatchTree(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
		cfg  Config
	}{
		{"undef-assign", MustLink(&Program{Name: "e1", Funcs: map[string]*Func{
			"main": {Body: []Stmt{Assign{Dst: "x", E: V("ghost")}}},
		}}), Config{}},
		{"undef-order-left-first", MustLink(&Program{Name: "e2", Funcs: map[string]*Func{
			// Both operands undefined: the LEFT one must be reported.
			"main": {Body: []Stmt{Assign{Dst: "x", E: Bin{Op: OpAdd, A: V("left"), B: V("right")}}}},
		}}), Config{}},
		{"undef-leaf-before-compound", MustLink(&Program{Name: "e3", Funcs: map[string]*Func{
			// Undefined leaf var precedes a compound operand that would
			// also fail: the leaf is evaluated (and must fail) first.
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: V("sz"), N: Bin{Op: OpAdd, A: V("alsoghost"), B: C(1)}},
			}},
		}}), Config{}},
		{"undef-compound-before-leaf", MustLink(&Program{Name: "e4", Funcs: map[string]*Func{
			// Compound operand fails before the trailing undefined leaf.
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: Bin{Op: OpAdd, A: V("ghost"), B: C(1)}, N: V("trailing")},
			}},
		}}), Config{}},
		{"undef-storevar", MustLink(&Program{Name: "e5", Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(16)},
				StoreVar{Base: V("p"), Src: "ghost"},
			}},
		}}), Config{}},
		{"undef-outputvar", MustLink(&Program{Name: "e6", Funcs: map[string]*Func{
			"main": {Body: []Stmt{OutputVar{Src: "ghost"}}},
		}}), Config{}},
		{"arg-count", MustLink(&Program{Name: "e7", Funcs: map[string]*Func{
			"main": {Body: []Stmt{Call{Callee: "f", Args: []Expr{C(1), C(2)}}}},
			"f":    {Params: []string{"one"}, Body: []Stmt{Nop{}}},
		}}), Config{}},
		{"step-limit", MustLink(&Program{Name: "e8", Funcs: map[string]*Func{
			"main": {Body: []Stmt{While{Cond: C(1), Body: []Stmt{Nop{}}}}},
		}}), Config{MaxSteps: 1000}},
		{"depth-limit", MustLink(&Program{Name: "e9", Funcs: map[string]*Func{
			"main": {Body: []Stmt{Call{Callee: "rec"}}},
			"rec":  {Body: []Stmt{Call{Callee: "rec"}}},
		}}), Config{MaxDepth: 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two identical runs: an executor reused after an aborted
			// run must reproduce the exact text again.
			diffEngines(t, tc.p, nil, tc.cfg, newNative, [][]byte{nil, nil})
		})
	}
}

// TestVMDifferentialThreads: RunThreads must be bit-identical across
// engines — the cooperative schedule yields at the same statement
// boundaries, so the shared backend sees the same interleaved
// operation sequence.
func TestVMDifferentialThreads(t *testing.T) {
	p := diffProgCalls()
	inputs := [][]byte{{4}, {2}, {7}, {1}}

	plan, err := encoding.NewPlan(encoding.SchemeTCS, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCCE, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}

	run := func(engine Engine) ([]*Result, uint64) {
		backend := newNative(t)
		res, err := RunThreads(p, Config{Backend: backend, Coder: coder, Engine: engine}, inputs, 16)
		if err != nil {
			t.Fatal(err)
		}
		return res, backend.Cycles()
	}
	tres, tcyc := run(engineConfigs[0].Engine)
	for _, ec := range engineConfigs[1:] {
		res, cyc := run(ec.Engine)
		for i := range tres {
			assertSameRun(t, "thread/"+ec.Name, tres[i], res[i], nil, nil)
		}
		if tcyc != cyc {
			t.Errorf("shared backend cycles: tree %d %s %d", tcyc, ec.Name, cyc)
		}
	}
}

// TestCompiledSharedAcrossGoroutines: one Prepared program's bytecode
// must be safely shareable by concurrently-running Machines
// (each with its own backend) — the fleet's layout. Run under -race
// this is the data-race proof; in all modes it checks cross-Machine
// result consistency.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	p := diffProgCalls()
	pp, err := Prepare(p, Config{Engine: EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExec(p, Config{Backend: newNative(t)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run([]byte{5})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			space, err := mem.NewSpace(mem.Config{})
			if err != nil {
				errs[g] = err
				return
			}
			backend, err := NewNativeBackend(space)
			if err != nil {
				errs[g] = err
				return
			}
			m, err := pp.NewExec(backend)
			if err != nil {
				errs[g] = err
				return
			}
			for i := 0; i < 50; i++ {
				res, err := m.Run([]byte{5})
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(res.Output, want.Output) || res.Cycles != want.Cycles {
					errs[g] = errStr("goroutine diverged from reference run")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

type errStr string

func (e errStr) Error() string { return string(e) }

// pinProgram is the interpreter-bound pin workload: it receives a heap
// address through its input and hammers loads, stores, arithmetic,
// calls, and output over it — no allocation statements, so the
// measurement isolates the Machine's own steady-state behavior.
func pinProgram(iters uint64) *Program {
	return MustLink(&Program{
		Name: "pin",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				ReadInput{Dst: "pbuf", N: C(8)},
				Assign{Dst: "p", E: Bin{Op: OpAdd, A: V("pbuf"), B: C(0)}},
				Assign{Dst: "i", E: C(0)},
				Assign{Dst: "acc", E: C(0)},
				While{Cond: Bin{Op: OpLt, A: V("i"), B: C(iters)}, Body: []Stmt{
					Store{Base: V("p"), Off: Bin{Op: OpAnd, A: V("i"), B: C(56)}, Src: V("i")},
					Load{Dst: "x", Base: V("p"), Off: Bin{Op: OpAnd, A: V("i"), B: C(56)}, N: C(8)},
					Call{Dst: "acc", Callee: "mix", Args: []Expr{V("acc"), V("x")}},
					Assign{Dst: "i", E: Bin{Op: OpAdd, A: V("i"), B: C(1)}},
				}},
				OutputVar{Src: "acc"},
				Return{E: V("acc")},
			}},
			"mix": {Params: []string{"a", "b"}, Body: []Stmt{
				Return{E: Bin{Op: OpXor, A: Bin{Op: OpMul, A: V("a"), B: C(31)}, B: V("b")}},
			}},
		},
	})
}

// pinSetup leaks one buffer on the backend's heap and returns its
// address encoded as the pin program's input.
func pinSetup(t *testing.T, backend HeapBackend) []byte {
	t.Helper()
	setup := MustLink(&Program{
		Name: "pin-setup",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(64)},
				Memset{Dst: V("p"), B: C(0), N: C(64)},
				Return{E: V("p")},
			}},
		},
	})
	it, err := New(setup, Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	res, err := it.Run(nil)
	if err != nil || res.Crashed() {
		t.Fatalf("pin setup: %v / %v", err, res)
	}
	in := make([]byte, 8)
	binary.LittleEndian.PutUint64(in, res.Returned.Uint())
	return in
}

// TestVMSteadyStateZeroAlloc pins the compiled engine's steady state:
// once warm, the engine allocates nothing — registers, frames and the
// returned value recycle their buffers — so Run on a Machine allocates
// only the Result and its Output (the pin program writes one word),
// with or without a quantum hook at the campaign walker's period.
func TestVMSteadyStateZeroAlloc(t *testing.T) {
	for _, every := range []uint64{0, 128} {
		t.Run(fmt.Sprintf("hook=%d", every), func(t *testing.T) {
			p := pinProgram(64)
			backend := newNative(t)
			input := pinSetup(t, backend)

			m := newTestMachine(t, p, Config{Backend: backend})
			calls := 0
			SetQuantumHook(m, every, func() { calls++ })
			var res *Result
			var err error
			// Warm the buffer pools.
			if res, err = m.Run(input); err != nil {
				t.Fatal(err)
			}
			if res.Crashed() {
				t.Fatalf("pin run crashed: %v", res.Fault)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if res, err = m.Run(input); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 2 {
				t.Errorf("steady-state Run allocates %.1f objects/run, want 2 (the Result and its Output)", allocs)
			}
			// One warm-up run, then AllocsPerRun's warm-up and 20 runs.
			if every != 0 {
				if want := 22 * int(res.Steps/every); calls != want {
					t.Errorf("hook fired %d times over 22 runs of %d steps, want %d", calls, res.Steps, want)
				}
			}
		})
	}
}

// TestVMMatchesTreeOnPin: the pin workload is also differentially
// checked (it drives the fused load/store path hard).
func TestVMMatchesTreeOnPin(t *testing.T) {
	p := pinProgram(128)
	mkReady := func(t *testing.T) HeapBackend { return newNative(t) }
	// Same leaked-buffer setup must run on each engine's backend; do it
	// via a shared wrapper factory that performs setup on creation.
	var inputs [][]byte
	mk := func(t *testing.T) HeapBackend {
		b := mkReady(t)
		in := pinSetup(t, b)
		if inputs == nil {
			inputs = [][]byte{in}
		} else if !bytes.Equal(inputs[0], in) {
			t.Fatalf("pin setup addresses diverge: %x vs %x", inputs[0], in)
		}
		return b
	}
	var ref *Result
	var referr error
	for i, ec := range engineConfigs {
		ex, err := NewExec(p, Config{Backend: mk(t), Engine: ec.Engine})
		if err != nil {
			t.Fatal(err)
		}
		r, err := ex.Run(inputs[0])
		if i == 0 {
			ref, referr = r, err
			continue
		}
		assertSameRun(t, "pin/"+ec.Name, ref, r, referr, err)
	}
}

func TestParseEngine(t *testing.T) {
	for _, e := range AllEngines() {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	// The CLIs forward this error verbatim as their usage message, so
	// it must list every valid spelling.
	_, err := ParseEngine("jit")
	if err == nil || !strings.Contains(err.Error(), "valid: tree, compiled") {
		t.Errorf("ParseEngine(jit) err = %v, want valid-name list", err)
	}
}

// TestEngineZeroValueAndRetiredVM: the zero Engine is the compiled
// engine, so every configuration that leaves Engine unset runs it,
// and the retired "vm" spelling is rejected with the list of engines
// that remain.
func TestEngineZeroValueAndRetiredVM(t *testing.T) {
	if Engine(0) != EngineCompiled {
		t.Errorf("Engine(0) = %v, want %v", Engine(0), EngineCompiled)
	}
	ex, err := NewExec(diffProgArith(), Config{Backend: newNative(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.(*Machine); !ok {
		t.Errorf("zero-value Config builds %T, want *Machine", ex)
	}
	_, err = ParseEngine("vm")
	if err == nil || !strings.Contains(err.Error(), "valid: tree, compiled") {
		t.Errorf(`ParseEngine("vm") err = %v, want failure listing "tree, compiled"`, err)
	}
}

func TestNewExecEngines(t *testing.T) {
	p := diffProgArith()
	for _, e := range AllEngines() {
		ex, err := NewExec(p, Config{Backend: newNative(t), Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if _, err := ex.Run([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
	}
	if _, err := NewExec(p, Config{Backend: newNative(t), Engine: Engine(99)}); err == nil {
		t.Error("NewExec with bogus engine succeeded")
	}
}

// TestPrepareValidation covers the construction seam's error paths: an
// unknown engine, an unlinked program, and a missing backend.
func TestPrepareValidation(t *testing.T) {
	p := diffProgHeap()
	if _, err := Prepare(p, Config{Engine: Engine(99)}); err == nil {
		t.Error("Prepare with bogus engine succeeded")
	}
	unlinked := &Program{Name: "unlinked", Funcs: map[string]*Func{"main": {}}}
	if _, err := Prepare(unlinked, Config{Engine: EngineCompiled}); err == nil {
		t.Error("Prepare of unlinked program succeeded")
	}
	for _, e := range AllEngines() {
		pp, err := Prepare(p, Config{Engine: e})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if _, err := pp.NewExec(nil); err == nil {
			t.Errorf("%v: NewExec without backend succeeded", e)
		}
	}
}
