package prog

// Tier-up engine specifics beyond the shared differential sweeps in
// vm_test.go: promotion timing (mid-run, mid-corpus), profile parity
// between promoted and never-promoted machines, construction/error
// paths, closure-cache sharing, and the steady-state zero-allocation
// pin for the compiled tier.

import (
	"bytes"
	"sync"
	"testing"

	"heaptherapy/internal/mem"
)

// hotProgram calls one helper repeatedly from a loop, so with a small
// threshold the helper (and main) promote in the middle of a single
// run while the loop is executing.
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

// TestMachinePromotionMidRun: a function promoted in the middle of a
// single run must leave every observable — result, statistics, and
// the per-site allocation profile — identical to a machine that never
// promotes and to the tree-walker.
func TestMachinePromotionMidRun(t *testing.T) {
	p := hotProgram(64)
	it, err := New(p, Config{Backend: newNative(t)})
	if err != nil {
		t.Fatal(err)
	}
	hot := newTestMachine(t, p, Config{Backend: newNative(t)}, 1)
	cold := newTestMachine(t, p, Config{Backend: newNative(t)}, neverPromote)

	tr, terr := it.Run(nil)
	hr, herr := hot.Run(nil)
	cr, cerr := cold.Run(nil)
	assertSameRun(t, "hot-vs-tree", tr, hr, terr, herr)
	assertSameRun(t, "cold-vs-tree", tr, cr, terr, cerr)

	if hot.Promotions() == 0 {
		t.Error("hot machine reported no promotions over a 64-iteration loop")
	}
	if cold.Promotions() != 0 {
		t.Errorf("cold machine promoted %d functions below threshold", cold.Promotions())
	}

	hp, cp := hot.SiteProfile(), cold.SiteProfile()
	if len(hp) != len(cp) {
		t.Fatalf("site profile lengths differ: hot %d cold %d", len(hp), len(cp))
	}
	for i := range hp {
		if hp[i] != cp[i] {
			t.Errorf("site %d profile diverges: hot %+v cold %+v", i, hp[i], cp[i])
		}
	}
}

// TestMachineClosureCacheShared: machines built from one Prepared
// share its closure cache and must produce identical runs, and a
// machine entering after another already promoted (so it starts
// directly on cached closure code) must be indistinguishable.
func TestMachineClosureCacheShared(t *testing.T) {
	p := hotProgram(32)
	pp, err := Prepare(p, Config{Engine: EngineCompiled, TierUp: 1})
	if err != nil {
		t.Fatal(err)
	}

	first, err := pp.NewExec(newNative(t))
	if err != nil {
		t.Fatal(err)
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
			m, err := pp.NewExec(backend)
			if err != nil {
				errs[g] = err
				return
			}
			for i := 0; i < 20; i++ {
				res, err := m.Run(nil)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(res.Output, want.Output) || res.Cycles != want.Cycles {
					errs[g] = errStr("shared-cache machine diverged from reference run")
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

// TestNewMachineValidation covers the compiled engine's construction
// error path (missing backend) and the default threshold.
func TestNewMachineValidation(t *testing.T) {
	pp, err := Prepare(hotProgram(4), Config{Engine: EngineCompiled})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.NewExec(nil); err == nil {
		t.Error("NewExec without backend succeeded")
	}
	ex, err := pp.NewExec(newNative(t))
	if err != nil {
		t.Fatal(err)
	}
	if m := ex.(*Machine); m.Threshold() != DefaultTierUp {
		t.Errorf("default threshold = %d, want DefaultTierUp (%d)", m.Threshold(), DefaultTierUp)
	}
}

// TestMachineRunThreadsDuringTierUp: spawning interpreter threads
// whose functions tier up mid-schedule must match the tree engine
// exactly — including when the thread count exceeds the threshold so
// later threads start on closure code the earlier ones compiled.
func TestMachineRunThreadsDuringTierUp(t *testing.T) {
	p := hotProgram(8)
	inputs := [][]byte{nil, nil, nil, nil, nil, nil}

	run := func(engine Engine) ([]*Result, uint64) {
		backend := newNative(t)
		res, err := RunThreads(p, Config{Backend: backend, Engine: engine, TierUp: 2}, inputs, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res, backend.Cycles()
	}
	tres, tcyc := run(EngineTree)
	mres, mcyc := run(EngineCompiled)
	for i := range tres {
		assertSameRun(t, "tierup-thread", tres[i], mres[i], nil, nil)
	}
	if tcyc != mcyc {
		t.Errorf("shared backend cycles: tree %d compiled %d", tcyc, mcyc)
	}
}

// TestMachineSteadyStateZeroAlloc extends the cold tier's
// zero-allocation pin to the closure tier: once every function is promoted and the
// buffer pools are warm, RunReuse on closure code allocates nothing.
func TestMachineSteadyStateZeroAlloc(t *testing.T) {
	p := pinProgram(64)
	backend := newNative(t)
	input := pinSetup(t, backend)

	m := newTestMachine(t, p, Config{Backend: backend}, 1)
	var res Result
	// Warm the pools and drive every function past the threshold.
	for i := 0; i < 3; i++ {
		if err := m.RunReuse(&res, input); err != nil {
			t.Fatal(err)
		}
		if res.Crashed() {
			t.Fatalf("pin run crashed: %v", res.Fault)
		}
	}
	if m.Promotions() == 0 {
		t.Fatal("pin workload never promoted; allocation pin would measure the cold tier")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := m.RunReuse(&res, input); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state compiled RunReuse allocates %.1f objects/run, want 0", allocs)
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
