package prog

// Differential verification of the compiled engine's Machine against
// the tree-walking reference interpreter, on both of its tiers (a
// never-promoting Machine runs only the cold bytecode tier, a
// threshold-1 Machine crosses to closure code mid-corpus): every
// observable of Run —
// output, return value, fault, statistics, and both interpreter- and
// backend-side cycle accounting — must be bit-identical, across
// backends, encoding schemes and encoders, crash paths, and malformed
// programs (where the error strings themselves must match). See also
// fuzz_test.go (randomized programs) and the cross-package suites in
// internal/experiments and internal/fleet.

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
)

// neverPromote is a tier-up threshold no test run reaches: a Machine
// configured with it executes every function on the cold bytecode
// tier.
const neverPromote = 1 << 40

// newTestMachine prepares p for the compiled engine with the given
// tier-up threshold and builds one Machine over cfg.Backend.
func newTestMachine(t testing.TB, p *Program, cfg Config, tierUp uint64) *Machine {
	t.Helper()
	cfg.Engine = EngineCompiled
	cfg.TierUp = tierUp
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

// diffEngines runs the same input sequence through the tree-walker, a
// never-promoting Machine, and a threshold-1 Machine — each over its
// own backend from mk, so heap state evolves independently but
// identically — and requires bit-identical observables, including the
// backends' total cycle accounts after every request. The threshold-1
// Machine crosses every function from the cold tier to closure code
// mid-corpus, so both tiers are differentially covered in one sweep.
func diffEngines(t *testing.T, p *Program, coder *encoding.Coder, cfg Config, mk func(t *testing.T) HeapBackend, inputs [][]byte) {
	t.Helper()
	cfg.Coder = coder

	tcfg := cfg
	tcfg.Backend = mk(t)
	it, err := New(p, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.Backend = mk(t)
	cold := newTestMachine(t, p, ccfg, neverPromote)
	hcfg := cfg
	hcfg.Backend = mk(t)
	hot := newTestMachine(t, p, hcfg, 1)

	for i, in := range inputs {
		tr, terr := it.Run(in)
		cr, cerr := cold.Run(in)
		hr, herr := hot.Run(in)
		label := strings.TrimSpace(p.Name) + "#" + string(rune('0'+i))
		assertSameRun(t, label+"/cold", tr, cr, terr, cerr)
		assertSameRun(t, label+"/hot", tr, hr, terr, herr)
		if tc, cc, hc := tcfg.Backend.Cycles(), ccfg.Backend.Cycles(), hcfg.Backend.Cycles(); tc != cc || tc != hc {
			t.Errorf("%s#%d: backend cycles diverge: tree %d cold %d hot %d", p.Name, i, tc, cc, hc)
		}
	}
	if cold.Promotions() != 0 {
		t.Errorf("%s: never-promote machine tiered up %d functions", p.Name, cold.Promotions())
	}
	if len(inputs) > 1 && hot.Promotions() == 0 {
		t.Errorf("%s: machine never tiered up over %d inputs (threshold 1)", p.Name, len(inputs))
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
// wrapper that hides the bulk-loader, also covering the Machine's
// non-BulkLoader load path).
func TestVMDifferentialEncoded(t *testing.T) {
	for _, p := range []*Program{ccidProgram(), diffProgCalls(), diffProgHeap()} {
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
				if len(recs) != 3 {
					t.Fatalf("expected 3 backends, got %d", len(recs))
				}
				tree := recs[0]
				for ei, eng := range recs[1:] {
					name := []string{"cold", "hot"}[ei]
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

// TestVMErrorsMatchTree: malformed programs abort both tiers with
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
			// Two identical runs: the never-promote Machine hits each
			// error on the cold tier both times; the threshold-1 Machine
			// hits it on the cold tier first and on closure code second,
			// so both tiers must reproduce the exact text.
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

	run := func(engine Engine, tierUp uint64) ([]*Result, uint64) {
		backend := newNative(t)
		// TierUp 1 makes compiled-engine threads promote functions while
		// sibling threads are mid-quantum on the cold tier, over one
		// shared closure cache (see RunThreads).
		res, err := RunThreads(p, Config{Backend: backend, Coder: coder, Engine: engine, TierUp: tierUp}, inputs, 16)
		if err != nil {
			t.Fatal(err)
		}
		return res, backend.Cycles()
	}
	tres, tcyc := run(EngineTree, 0)
	cres, ccyc := run(EngineCompiled, neverPromote)
	hres, hcyc := run(EngineCompiled, 1)
	for i := range tres {
		assertSameRun(t, "thread/cold", tres[i], cres[i], nil, nil)
		assertSameRun(t, "thread/hot", tres[i], hres[i], nil, nil)
	}
	if tcyc != ccyc || tcyc != hcyc {
		t.Errorf("shared backend cycles: tree %d cold %d hot %d", tcyc, ccyc, hcyc)
	}
}

// TestCompiledSharedAcrossGoroutines: one Prepared program's bytecode
// must be safely shareable by concurrently-running cold-tier Machines
// (each with its own backend) — the fleet's layout. Run under -race
// this is the data-race proof; in all modes it checks cross-Machine
// result consistency.
func TestCompiledSharedAcrossGoroutines(t *testing.T) {
	p := diffProgCalls()
	pp, err := Prepare(p, Config{Engine: EngineCompiled, TierUp: neverPromote})
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

// TestVMSteadyStateZeroAlloc pins the cold tier's steady state: once
// warm, RunReuse on a never-promoting Machine allocates nothing —
// registers, frames, output, and the Result all recycle their buffers.
// TestMachineSteadyStateZeroAlloc pins the closure tier.
func TestVMSteadyStateZeroAlloc(t *testing.T) {
	p := pinProgram(64)
	backend := newNative(t)
	input := pinSetup(t, backend)

	m := newTestMachine(t, p, Config{Backend: backend}, neverPromote)
	var res Result
	// Warm the buffer pools.
	if err := m.RunReuse(&res, input); err != nil {
		t.Fatal(err)
	}
	if res.Crashed() {
		t.Fatalf("pin run crashed: %v", res.Fault)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.RunReuse(&res, input); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunReuse allocates %.1f objects/run, want 0", allocs)
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
	tb := mk(t)
	cb := mk(t)
	hb := mk(t)
	it, err := New(p, Config{Backend: tb})
	if err != nil {
		t.Fatal(err)
	}
	cold := newTestMachine(t, p, Config{Backend: cb}, neverPromote)
	hot := newTestMachine(t, p, Config{Backend: hb}, 1)
	tr, terr := it.Run(inputs[0])
	cr, cerr := cold.Run(inputs[0])
	hr, herr := hot.Run(inputs[0])
	assertSameRun(t, "pin/cold", tr, cr, terr, cerr)
	assertSameRun(t, "pin/hot", tr, hr, terr, herr)
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

// TestVMSiteProfile: the verdict inline caches count allocations per
// site; without a PatchProber backend, patched counts stay zero.
func TestVMSiteProfile(t *testing.T) {
	p := diffProgCalls()
	m := newTestMachine(t, p, Config{Backend: newNative(t)}, neverPromote)
	if _, err := m.Run([]byte{2}); err != nil {
		t.Fatal(err)
	}
	prof := m.SiteProfile()
	if len(prof) == 0 {
		t.Fatal("no alloc sites profiled")
	}
	var total uint64
	for _, s := range prof {
		total += s.Allocs
		if s.PatchedAllocs != 0 {
			t.Errorf("site %d: patched %d without a prober", s.Site, s.PatchedAllocs)
		}
	}
	// hot() allocates once per invocation: 3 loop calls + 1 branch call.
	if total != 4 {
		t.Errorf("profiled allocs = %d, want 4", total)
	}
}
