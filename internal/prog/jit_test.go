package prog

// Compiled-engine specifics beyond the shared differential sweeps in
// vm_test.go: the bytecode's layout (exact sizing, instruction size,
// fusion marks), the construction error path, one Prepared's bytecode
// shared by many Machines, and the zero-allocation pins on the shapes
// fleet workers and RunThreads run.

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"heaptherapy/internal/mem"
)

// hotProgram calls one allocating helper repeatedly from a loop.
func hotProgram(iters uint64) *Program {
	return MustLink(&Program{
		Name: "hot",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Assign{Dst: "i", E: C(0)},
				Assign{Dst: "acc", E: C(0)},
				While{Cond: Bin{Op: OpLt, A: V("i"), B: C(iters)}, Body: []Stmt{
					Call{Dst: "acc", Callee: "work", Args: []Expr{V("acc"), V("i")}},
					Assign{Dst: "i", E: Bin{Op: OpAdd, A: V("i"), B: C(1)}},
				}},
				OutputVar{Src: "acc"},
				Return{E: V("acc")},
			}},
			"work": {Params: []string{"a", "x"}, Body: []Stmt{
				Alloc{Dst: "p", Size: C(32)},
				Store{Base: V("p"), Src: Bin{Op: OpXor, A: V("a"), B: Bin{Op: OpMul, A: V("x"), B: C(31)}}},
				Load{Dst: "y", Base: V("p"), N: C(8)},
				FreeStmt{Ptr: V("p")},
				Return{E: V("y")},
			}},
		},
	})
}

// TestBytecodeExactlySized: compile leaves no append slack in the
// immutable bytecode and packs call records into 32 bytes with their
// operands in the shared pool.
func TestBytecodeExactlySized(t *testing.T) {
	for _, p := range []*Program{hotProgram(8), diffProgCalls(), diffProgHeap(), diffProgArith()} {
		c, err := compile(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		sizes := map[string][2]int{
			"code":        {len(c.code), cap(c.code)},
			"consts":      {len(c.consts), cap(c.consts)},
			"constU":      {len(c.constU), cap(c.constU)},
			"datas":       {len(c.datas), cap(c.datas)},
			"funcs":       {len(c.funcs), cap(c.funcs)},
			"calls":       {len(c.calls), cap(c.calls)},
			"callArgs":    {len(c.callArgs), cap(c.callArgs)},
			"allocs":      {len(c.allocs), cap(c.allocs)},
			"globalNames": {len(c.globalNames), cap(c.globalNames)},
		}
		for _, f := range c.funcs {
			sizes["regNames "+f.name] = [2]int{len(f.regNames), cap(f.regNames)}
		}
		for name, lc := range sizes {
			if lc[0] != lc[1] {
				t.Errorf("%s: %s len %d cap %d", p.Name, name, lc[0], lc[1])
			}
		}
		var nargs int32
		for i := range c.calls {
			nargs += c.calls[i].nargs
		}
		if int(nargs) != len(c.callArgs) {
			t.Errorf("%s: call records address %d operands, pool holds %d", p.Name, nargs, len(c.callArgs))
		}
	}
	if size := unsafe.Sizeof(callRec{}); size > 32 {
		t.Errorf("callRec is %d bytes, want at most 32", size)
	}
}

// TestInstrSize: the fusion mark lives in instr's padding, so an
// instruction stays 24 bytes.
func TestInstrSize(t *testing.T) {
	if size := unsafe.Sizeof(instr{}); size != 24 {
		t.Errorf("instr is %d bytes, want 24", size)
	}
}

// TestFusionMarks pins markFusion's rule on each shape it must tell
// apart: the loop-head compare feeding its branch, the latch feeding
// the back-edge, chained binary ops (never marked), a compare feeding
// a branch that carries its own statement tick, and a then-arm's last
// op whose successor is the If's false-edge target.
func TestFusionMarks(t *testing.T) {
	p := MustLink(&Program{Name: "marks", Funcs: map[string]*Func{
		"main": {Body: []Stmt{
			Assign{Dst: "i", E: C(0)},
			Assign{Dst: "n", E: C(0)},
			While{Cond: Lt(V("i"), C(9)), Body: []Stmt{ // fuseBr
				Assign{Dst: "c", E: Lt(V("i"), C(3))}, // next opBr ticks: none
				If{Cond: V("c"), Then: []Stmt{
					Assign{Dst: "n", E: Add(V("n"), C(1))}, // next is a jump target: none
				}},
				Assign{Dst: "x", E: Bin{Op: OpMul, A: Add(V("i"), V("n")), B: C(3)}}, // chained: none
				Assign{Dst: "i", E: Add(V("i"), C(1))},                               // fuseJump
			}},
		}},
	}})
	c, err := compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []fuseKind
	for _, ins := range c.code {
		if ins.op == opBin {
			got = append(got, ins.fuse)
		} else if ins.fuse != fuseNone {
			t.Errorf("opcode %d carries fusion mark %d", ins.op, ins.fuse)
		}
	}
	want := []fuseKind{fuseBr, fuseNone, fuseNone, fuseNone, fuseNone, fuseJump}
	if !slices.Equal(got, want) {
		t.Errorf("opBin fusion marks %v, want %v", got, want)
	}
}

// TestNewMachineValidation covers the compiled engine's construction
// error path (missing backend).
func TestNewMachineValidation(t *testing.T) {
	pp, err := Prepare(hotProgram(4), Config{Engine: EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.NewExec(nil); err == nil {
		t.Error("NewExec without backend succeeded")
	}
	if _, err := pp.NewExec(newNative(t)); err != nil {
		t.Fatal(err)
	}
}

// TestMachineClosureCacheShared: every Machine built from one Prepared
// runs the Prepared's bytecode itself (the program compiles once; the
// test keeps the name it had when that shared artifact was a closure
// cache), and machines built after another already ran — concurrently,
// each on its own backend and re-running 20 times — must be
// indistinguishable from it.
func TestMachineClosureCacheShared(t *testing.T) {
	p := hotProgram(32)
	pp, err := Prepare(p, Config{Engine: EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}

	first, err := pp.NewExec(newNative(t))
	if err != nil {
		t.Fatal(err)
	}
	if first.(*Machine).c != pp.code {
		t.Fatal("Machine does not run its Prepared's bytecode")
	}
	want, err := first.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			backend := newNativeNoT()
			if backend == nil {
				errs[g] = errStr("backend construction failed")
				return
			}
			ex, err := pp.NewExec(backend)
			if err != nil {
				errs[g] = err
				return
			}
			if ex.(*Machine).c != pp.code {
				errs[g] = errStr("Machine does not run its Prepared's bytecode")
				return
			}
			for i := 0; i < 20; i++ {
				res, err := ex.Run(nil)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(res.Output, want.Output) || res.Cycles != want.Cycles || res.Steps != want.Steps {
					errs[g] = errStr("shared-bytecode machine diverged from reference run")
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

// TestMachineSteadyStateZeroAlloc extends TestVMSteadyStateZeroAlloc's
// pin from a lone Machine to the shape fleet workers and RunThreads
// run: a Machine handed out by a Prepared that another Machine already
// ran, with a scheduling hook firing every few statements. Once warm,
// Run allocates only the Result and its Output, and the hook still
// fires on schedule.
func TestMachineSteadyStateZeroAlloc(t *testing.T) {
	p := pinProgram(64)
	pp, err := Prepare(p, Config{Engine: EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	other := newNative(t)
	otherInput := pinSetup(t, other)
	ex, err := pp.NewExec(other)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = ex.(*Machine).Run(otherInput); err != nil {
		t.Fatal(err)
	}

	backend := newNative(t)
	input := pinSetup(t, backend)
	ex, err = pp.NewExec(backend)
	if err != nil {
		t.Fatal(err)
	}
	m := ex.(*Machine)
	calls := 0
	if !SetQuantumHook(m, 7, func() { calls++ }) {
		t.Fatal("Machine does not support quantum hooks")
	}
	// Warm the buffer pools.
	for i := 0; i < 3; i++ {
		if res, err = m.Run(input); err != nil {
			t.Fatal(err)
		}
		if res.Crashed() {
			t.Fatalf("pin run crashed: %v", res.Fault)
		}
	}
	calls = 0
	allocs := testing.AllocsPerRun(20, func() {
		if res, err = m.Run(input); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("steady-state hooked Run allocates %.1f objects/run, want 2 (the Result and its Output)", allocs)
	}
	// AllocsPerRun makes one warm-up call before its 20 measured ones.
	if want := 21 * int(res.Steps/7); calls != want {
		t.Errorf("hook fired %d times over 21 runs of %d steps, want %d", calls, res.Steps, want)
	}
}

// newNativeNoT is newNative for goroutines that must not call t.Fatal.
func newNativeNoT() HeapBackend {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil
	}
	backend, err := NewNativeBackend(space)
	if err != nil {
		return nil
	}
	return backend
}
