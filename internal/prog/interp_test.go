package prog

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"heaptherapy/internal/callgraph"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
)

func nativeInterp(t *testing.T, p *Program, coder *encoding.Coder) *Interp {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewNativeBackend(space)
	if err != nil {
		t.Fatal(err)
	}
	it, err := New(p, Config{Backend: backend, Coder: coder})
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func run(t *testing.T, p *Program, input []byte) *Result {
	t.Helper()
	it := nativeInterp(t, p, nil)
	res, err := it.Run(input)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestLinkRejectsUndefinedCallee(t *testing.T) {
	p := &Program{
		Name:  "bad",
		Funcs: map[string]*Func{"main": {Body: []Stmt{Call{Callee: "ghost"}}}},
	}
	if err := Link(p); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("Link err = %v, want undefined-function error", err)
	}
}

func TestLinkRequiresEntry(t *testing.T) {
	p := &Program{Name: "noentry", Funcs: map[string]*Func{"helper": {}}}
	if err := Link(p); err == nil {
		t.Error("Link without main succeeded")
	}
}

func TestLinkBuildsGraph(t *testing.T) {
	p := MustLink(&Program{
		Name: "g",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Call{Callee: "work"},
			}},
			"work": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(64)},
				FreeStmt{Ptr: V("p")},
			}},
		},
	})
	g := p.Graph()
	if g.NodeByName("malloc") == callgraph.InvalidNode {
		t.Fatal("malloc node missing from call graph")
	}
	if len(p.Targets()) != 1 {
		t.Fatalf("targets = %v, want [malloc]", p.Targets())
	}
	if s := g.OutSites(g.NodeByName("main")); len(s) != 1 || g.SiteLabel(s[0]) != "main->work#0" {
		t.Error("main->work site missing")
	}
	if s := g.OutSites(g.NodeByName("work")); len(s) != 1 || g.SiteLabel(s[0]) != "work->malloc#0" {
		t.Error("work->malloc site missing")
	}
}

func TestArithmeticAndOutput(t *testing.T) {
	p := MustLink(&Program{
		Name: "arith",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Assign{Dst: "x", E: C(6)},
				Assign{Dst: "y", E: Mul(V("x"), C(7))},
				OutputVar{Src: "y"},
			}},
		},
	})
	res := run(t, p, nil)
	if got := (Value{Bytes: res.Output}).Uint(); got != 42 {
		t.Errorf("output = %d, want 42", got)
	}
}

func TestHeapRoundTrip(t *testing.T) {
	p := MustLink(&Program{
		Name: "heap",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(64)},
				StoreBytes{Base: V("p"), Data: []byte("hello heap")},
				Output{Base: V("p"), N: C(10)},
				FreeStmt{Ptr: V("p")},
			}},
		},
	})
	res := run(t, p, nil)
	if string(res.Output) != "hello heap" {
		t.Errorf("output = %q, want %q", res.Output, "hello heap")
	}
	if res.Allocs != 1 || res.Frees != 1 {
		t.Errorf("allocs/frees = %d/%d, want 1/1", res.Allocs, res.Frees)
	}
	if res.Crashed() {
		t.Errorf("unexpected fault: %v", res.Fault)
	}
}

func TestCallocMemalignRealloc(t *testing.T) {
	p := MustLink(&Program{
		Name: "allocfns",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "c", Fn: heapsim.FnCalloc, Size: C(8), N: C(4)},
				Output{Base: V("c"), N: C(32)}, // calloc'd: all zeros
				Alloc{Dst: "m", Fn: heapsim.FnMemalign, Size: C(100), Align: C(256)},
				Assign{Dst: "aligned", E: Bin{Op: OpMod, A: V("m"), B: C(256)}},
				OutputVar{Src: "aligned"},
				ReallocStmt{Dst: "c", Ptr: V("c"), Size: C(128)},
				FreeStmt{Ptr: V("c")},
				FreeStmt{Ptr: V("m")},
			}},
		},
	})
	res := run(t, p, nil)
	if len(res.Output) != 40 {
		t.Fatalf("output length = %d, want 40", len(res.Output))
	}
	for i := 0; i < 32; i++ {
		if res.Output[i] != 0 {
			t.Fatalf("calloc byte %d nonzero", i)
		}
	}
	if got := (Value{Bytes: res.Output[32:]}).Uint(); got != 0 {
		t.Errorf("memalign remainder = %d, want 0", got)
	}
}

func TestControlFlow(t *testing.T) {
	p := MustLink(&Program{
		Name: "flow",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				ReadInput{Dst: "n", N: C(1)},
				Assign{Dst: "i", E: C(0)},
				Assign{Dst: "sum", E: C(0)},
				While{Cond: Lt(V("i"), Bin{Op: OpAnd, A: V("n"), B: C(0xFF)}), Body: []Stmt{
					Assign{Dst: "sum", E: Add(V("sum"), V("i"))},
					Assign{Dst: "i", E: Add(V("i"), C(1))},
				}},
				If{Cond: Gt(V("sum"), C(10)), Then: []Stmt{
					OutputVar{Src: "sum"},
				}, Else: []Stmt{
					Assign{Dst: "z", E: C(0)},
					OutputVar{Src: "z"},
				}},
			}},
		},
	})
	// n = 6: sum = 15 > 10.
	res := run(t, p, []byte{6})
	if got := (Value{Bytes: res.Output}).Uint(); got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
	// n = 3: sum = 3, else branch outputs 0.
	res = run(t, p, []byte{3})
	if got := (Value{Bytes: res.Output}).Uint(); got != 0 {
		t.Errorf("else output = %d, want 0", got)
	}
}

func TestFunctionCallsAndReturn(t *testing.T) {
	p := MustLink(&Program{
		Name: "calls",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Call{Dst: "r", Callee: "square", Args: []Expr{C(9)}},
				OutputVar{Src: "r"},
			}},
			"square": {Params: []string{"x"}, Body: []Stmt{
				Return{E: Mul(V("x"), V("x"))},
			}},
		},
	})
	res := run(t, p, nil)
	if got := (Value{Bytes: res.Output}).Uint(); got != 81 {
		t.Errorf("square(9) = %d, want 81", got)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	p := MustLink(&Program{
		Name: "inf",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{Call{Callee: "loop"}}},
			"loop": {Body: []Stmt{Call{Callee: "loop"}}},
		},
	})
	it := nativeInterp(t, p, nil)
	if _, err := it.Run(nil); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("unbounded recursion err = %v, want depth limit", err)
	}
}

func TestStepLimit(t *testing.T) {
	p := MustLink(&Program{
		Name: "spin",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{While{Cond: C(1), Body: []Stmt{Nop{}}}}},
		},
	})
	space, _ := mem.NewSpace(mem.Config{})
	backend, _ := NewNativeBackend(space)
	it, err := New(p, Config{Backend: backend, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Run(nil); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("infinite loop err = %v, want step limit", err)
	}
}

// TestStepLimitTyped: both engines report an exhausted step budget as an
// error wrapping ErrStepLimit, with the same text.
func TestStepLimitTyped(t *testing.T) {
	p := MustLink(&Program{
		Name: "spin",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{While{Cond: C(1), Body: []Stmt{Nop{}}}}},
		},
	})
	for _, e := range AllEngines() {
		t.Run(e.String(), func(t *testing.T) {
			ex, err := NewExec(p, Config{Backend: newNative(t), Engine: e, MaxSteps: 1000})
			if err != nil {
				t.Fatal(err)
			}
			_, err = ex.Run(nil)
			if !errors.Is(err, ErrStepLimit) {
				t.Fatalf("err = %v, want one wrapping ErrStepLimit", err)
			}
			if want := "prog spin: step limit 1000 exceeded"; err.Error() != want {
				t.Errorf("err = %q, want %q", err, want)
			}
		})
	}
}

func TestMemcpyAndMemset(t *testing.T) {
	p := MustLink(&Program{
		Name: "copy",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "a", Size: C(32)},
				Alloc{Dst: "b", Size: C(32)},
				Memset{Dst: V("a"), B: C(0x5A), N: C(32)},
				Memcpy{Dst: V("b"), Src: V("a"), N: C(32)},
				Output{Base: V("b"), N: C(32)},
			}},
		},
	})
	res := run(t, p, nil)
	for i, b := range res.Output {
		if b != 0x5A {
			t.Fatalf("byte %d = %#x, want 0x5A", i, b)
		}
	}
}

func TestOverflowFaultsNatively(t *testing.T) {
	// Writing far past a buffer eventually leaves the mapped arena or
	// the pages; either way the simulated process must crash rather
	// than the interpreter erroring out.
	p := MustLink(&Program{
		Name: "crash",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(16)},
				StoreBytes{Base: V("p"), Off: C(100 * 1024 * 1024), Data: []byte{1}},
			}},
		},
	})
	res := run(t, p, nil)
	if !res.Crashed() {
		t.Fatal("wild store did not crash")
	}
	if !errors.As(res.Fault, new(*mem.FaultError)) {
		t.Errorf("fault = %v, want memory fault", res.Fault)
	}
}

func TestDoubleFreeCrashesNatively(t *testing.T) {
	p := MustLink(&Program{
		Name: "dfree",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(16)},
				FreeStmt{Ptr: V("p")},
				FreeStmt{Ptr: V("p")},
			}},
		},
	})
	res := run(t, p, nil)
	if !res.Crashed() {
		t.Fatal("double free did not crash")
	}
}

func TestReadInputClamps(t *testing.T) {
	p := MustLink(&Program{
		Name: "input",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				ReadInput{Dst: "a", N: C(4)},
				ReadInput{Dst: "b", N: C(100)}, // only 2 left
				OutputVar{Src: "a"},
				OutputVar{Src: "b"},
				Assign{Dst: "rem", E: InputRemaining{}},
				OutputVar{Src: "rem"},
			}},
		},
	})
	res := run(t, p, []byte("abcdef"))
	if !bytes.Equal(res.Output[:6], []byte("abcdef")) {
		t.Errorf("output = %q, want abcdef prefix", res.Output)
	}
	if got := (Value{Bytes: res.Output[6:]}).Uint(); got != 0 {
		t.Errorf("remaining = %d, want 0", got)
	}
}

// ccidProgram has two distinct allocation contexts reaching malloc.
func ccidProgram() *Program {
	return MustLink(&Program{
		Name: "ccids",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Call{Callee: "pathA"},
				Call{Callee: "pathB"},
			}},
			"pathA": {Body: []Stmt{Call{Callee: "alloc16"}}},
			"pathB": {Body: []Stmt{Call{Callee: "alloc16"}}},
			"alloc16": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(16)},
				FreeStmt{Ptr: V("p")},
			}},
		},
	})
}

// recordingBackend wraps a backend and records allocation CCIDs.
type recordingBackend struct {
	HeapBackend
	ccids []uint64
}

func (rb *recordingBackend) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	rb.ccids = append(rb.ccids, ccid)
	return rb.HeapBackend.Alloc(fn, ccid, n, size, align)
}

// TestCCIDsDistinguishContexts runs the two-context program under every
// scheme and encoder and checks the two allocations get distinct CCIDs:
// the property code-less patching depends on.
func TestCCIDsDistinguishContexts(t *testing.T) {
	p := ccidProgram()
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
			space, _ := mem.NewSpace(mem.Config{})
			native, _ := NewNativeBackend(space)
			rb := &recordingBackend{HeapBackend: native}
			it, err := New(p, Config{Backend: rb, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := it.Run(nil); err != nil {
				t.Fatal(err)
			}
			if len(rb.ccids) != 2 {
				t.Fatalf("%v/%v: %d allocations, want 2", scheme, kind, len(rb.ccids))
			}
			if rb.ccids[0] == rb.ccids[1] {
				t.Errorf("%v/%v: both contexts got CCID %#x", scheme, kind, rb.ccids[0])
			}
		}
	}
}

// TestCCIDsStableAcrossRuns: the same context must yield the same CCID
// every run — offline-generated patches must match online allocations.
func TestCCIDsStableAcrossRuns(t *testing.T) {
	p := ccidProgram()
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var firstRun []uint64
	for i := 0; i < 3; i++ {
		space, _ := mem.NewSpace(mem.Config{})
		native, _ := NewNativeBackend(space)
		rb := &recordingBackend{HeapBackend: native}
		it, err := New(p, Config{Backend: rb, Coder: coder})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Run(nil); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstRun = rb.ccids
			continue
		}
		for j := range firstRun {
			if rb.ccids[j] != firstRun[j] {
				t.Fatalf("run %d: ccid[%d] = %#x, want %#x", i, j, rb.ccids[j], firstRun[j])
			}
		}
	}
}

// TestEncUpdateCounts: pruned plans must execute fewer updates.
func TestEncUpdateCounts(t *testing.T) {
	p := ccidProgram()
	var prev uint64 = ^uint64(0)
	for _, scheme := range encoding.AllSchemes() {
		plan, err := encoding.NewPlan(scheme, p.Graph(), p.Targets())
		if err != nil {
			t.Fatal(err)
		}
		coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
		if err != nil {
			t.Fatal(err)
		}
		it := nativeInterp(t, p, coder)
		res, err := it.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.EncUpdates > prev {
			t.Errorf("%v executed %d updates > previous scheme's %d", scheme, res.EncUpdates, prev)
		}
		prev = res.EncUpdates
	}
}

func TestResultCycleAccounting(t *testing.T) {
	p := ccidProgram()
	it := nativeInterp(t, p, nil)
	res, err := it.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("Cycles = 0; cost model not applied")
	}
	if res.Steps == 0 {
		t.Error("Steps = 0")
	}
}

func TestRunIsReusable(t *testing.T) {
	p := MustLink(&Program{
		Name: "echo",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				ReadInput{Dst: "x", N: InputLen{}},
				OutputVar{Src: "x"},
			}},
		},
	})
	it := nativeInterp(t, p, nil)
	for _, in := range []string{"first", "second", ""} {
		res, err := it.Run([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Output) != in {
			t.Errorf("echo(%q) = %q", in, res.Output)
		}
	}
}

func TestUnlinkedProgramRejected(t *testing.T) {
	p := &Program{Name: "raw", Funcs: map[string]*Func{"main": {}}}
	space, _ := mem.NewSpace(mem.Config{})
	backend, _ := NewNativeBackend(space)
	if _, err := New(p, Config{Backend: backend}); err == nil {
		t.Error("New accepted unlinked program")
	}
}

func TestCallArgumentMismatch(t *testing.T) {
	p := MustLink(&Program{
		Name: "argmismatch",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{Call{Callee: "f", Args: []Expr{C(1)}}}},
			"f":    {Params: []string{"a", "b"}, Body: []Stmt{Return{}}},
		},
	})
	it := nativeInterp(t, p, nil)
	if _, err := it.Run(nil); err == nil || !strings.Contains(err.Error(), "args") {
		t.Errorf("arg mismatch err = %v", err)
	}
}

func TestUndefinedVariable(t *testing.T) {
	p := MustLink(&Program{
		Name: "undef",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{OutputVar{Src: "ghost"}}},
		},
	})
	it := nativeInterp(t, p, nil)
	if _, err := it.Run(nil); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("undefined var err = %v", err)
	}
}

func TestStorePartialWidth(t *testing.T) {
	p := MustLink(&Program{
		Name: "width",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(16)},
				Memset{Dst: V("p"), B: C(0xFF), N: C(16)},
				Store{Base: V("p"), Src: C(0x1122334455667788), N: C(2)},
				Output{Base: V("p"), N: C(4)},
			}},
		},
	})
	res := run(t, p, nil)
	want := []byte{0x88, 0x77, 0xFF, 0xFF}
	if !bytes.Equal(res.Output, want) {
		t.Errorf("memory = %x, want %x", res.Output, want)
	}
}
