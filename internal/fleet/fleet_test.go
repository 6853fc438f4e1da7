package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// serveAll runs one request per input on workers goroutines that share
// the fleet (and its sealed table) and pull inputs off one atomic
// next-index; the i-th result lands in the i-th slot. Each goroutine
// follows the front-end's per-request sequence: Acquire a context,
// build an executor over its backend from the once-prepared program,
// then SyncTable → Run → FinishRequest per request.
// coder may be nil to run without calling-context encoding.
func serveAll(f *Fleet, p *prog.Program, coder *encoding.Coder, engine prog.Engine, workers int, inputs [][]byte) ([]*prog.Result, error) {
	pp, err := prog.Prepare(p, prog.Config{Coder: coder, Engine: engine})
	if err != nil {
		return nil, err
	}
	results := make([]*prog.Result, len(inputs))
	errs := make([]error, min(workers, len(inputs)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = serveRequests(f, pp, inputs, results, &next)
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// serveRequests is one serveAll goroutine's request loop over its
// private context.
func serveRequests(f *Fleet, pp *prog.Prepared, inputs [][]byte, results []*prog.Result, next *atomic.Int64) error {
	ctx, err := f.Acquire()
	if err != nil {
		return err
	}
	it, err := pp.NewExec(ctx.Backend())
	if err != nil {
		return err
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= len(inputs) {
			break
		}
		if _, err := ctx.SyncTable(f); err != nil {
			return err
		}
		res, err := it.Run(inputs[i])
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		results[i] = res
		if err := f.FinishRequest(ctx, res.Crashed()); err != nil {
			return err
		}
	}
	return nil
}

// uafProgram is a request handler with a use-after-free on its error
// path (input 0xEE): the freed object is regroomed and dereferenced.
func uafProgram() *prog.Program {
	const good, evil = 0x5AFE, 0xBAD
	return prog.MustLink(&prog.Program{
		Name: "fleet-uaf",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Call{Callee: "serve"},
			}},
			"serve": {Body: []prog.Stmt{
				prog.ReadInput{Dst: "kind", N: prog.C(1)},
				prog.Alloc{Dst: "obj", Size: prog.C(96)},
				prog.Store{Base: prog.V("obj"), Src: prog.C(good), N: prog.C(8)},
				prog.If{Cond: prog.Eq(prog.And(prog.V("kind"), prog.C(0xFF)), prog.C(0xEE)), Then: []prog.Stmt{
					prog.FreeStmt{Ptr: prog.V("obj")},
					prog.Alloc{Dst: "groom", Size: prog.C(96)},
					prog.Store{Base: prog.V("groom"), Src: prog.C(evil), N: prog.C(8)},
					prog.Load{Dst: "h", Base: prog.V("obj"), N: prog.C(8)},
					prog.FreeStmt{Ptr: prog.V("groom")},
					prog.OutputVar{Src: "h"},
					prog.Return{},
				}},
				prog.Load{Dst: "h", Base: prog.V("obj"), N: prog.C(8)},
				prog.FreeStmt{Ptr: prog.V("obj")},
				prog.OutputVar{Src: "h"},
			}},
		},
	})
}

// analyzeUAF runs the offline pipeline over the attack input and
// returns the coder and generated patches.
func analyzeUAF(t *testing.T, p *prog.Program) (*encoding.Coder, *patch.Set) {
	t.Helper()
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	a := &analysis.Analyzer{Coder: coder}
	rep, err := a.Analyze(p, []byte{0xEE})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patches.Len() == 0 {
		t.Fatalf("no patches from attack replay; warnings: %v", rep.Warnings)
	}
	return coder, rep.Patches
}

// overflowProgram handles a request over a 100-byte buffer; input 1
// drives a contiguous overflow well past the buffer's end (4 KiB),
// which under an overflow patch runs into the guard page.
func overflowProgram() *prog.Program {
	return prog.MustLink(&prog.Program{
		Name: "fleet-overflow",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.ReadInput{Dst: "kind", N: prog.C(1)},
				prog.Alloc{Dst: "buf", Size: prog.C(100)},
				prog.Store{Base: prog.V("buf"), Src: prog.C(0x600D), N: prog.C(8)},
				prog.If{Cond: prog.Eq(prog.And(prog.V("kind"), prog.C(0xFF)), prog.C(1)), Then: []prog.Stmt{
					prog.Assign{Dst: "off", E: prog.C(96)},
					prog.While{Cond: prog.Lt(prog.V("off"), prog.C(4200)), Body: []prog.Stmt{
						prog.Store{Base: prog.Add(prog.V("buf"), prog.V("off")), Src: prog.C(0xAB), N: prog.C(8)},
						prog.Assign{Dst: "off", E: prog.Add(prog.V("off"), prog.C(8))},
					}},
				}},
				prog.Load{Dst: "back", Base: prog.V("buf"), N: prog.C(8)},
				prog.FreeStmt{Ptr: prog.V("buf")},
				prog.OutputVar{Src: "back"},
			}},
		},
	})
}

// ccidRecorder wraps a backend and records the allocation-time CCID of
// every Alloc, so tests can key patches on real encoded contexts.
type ccidRecorder struct {
	prog.HeapBackend
	ccids []uint64
}

func (r *ccidRecorder) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	r.ccids = append(r.ccids, ccid)
	return r.HeapBackend.Alloc(fn, ccid, n, size, align)
}

// overflowSetup builds the coder and an overflow patch for the
// program's single allocation site, recorded from a benign run.
func overflowSetup(t *testing.T, p *prog.Program) (*encoding.Coder, *patch.Set) {
	t.Helper()
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := prog.NewNativeBackend(space)
	if err != nil {
		t.Fatal(err)
	}
	rec := &ccidRecorder{HeapBackend: nb}
	it, err := prog.New(p, prog.Config{Backend: rec, Coder: coder})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Run([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if len(rec.ccids) != 1 {
		t.Fatalf("recorded %d CCIDs, want 1", len(rec.ccids))
	}
	set := patch.NewSet()
	set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: rec.ccids[0], Types: patch.TypeOverflow})
	return coder, set
}

// TestFleetServeMatchesSingleRuns: the parallel fleet must produce,
// for every input, exactly the result a standalone defended run of
// that input produces — parallelism and context recycling are invisible
// to each tenant.
func TestFleetServeMatchesSingleRuns(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)

	inputs := make([][]byte, 16)
	for i := range inputs {
		if i%3 == 1 {
			inputs[i] = []byte{0xEE} // attack request
		} else {
			inputs[i] = []byte{0x00}
		}
	}

	f := New(Config{Patches: patches})
	results, err := serveAll(f, p, coder, prog.EngineCompiled, 4, inputs)
	if err != nil {
		t.Fatal(err)
	}

	ref := New(Config{Patches: patches})
	for i, in := range inputs {
		ctx, err := ref.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		it, err := prog.New(p, prog.Config{Backend: ctx.Backend(), Coder: coder})
		if err != nil {
			t.Fatal(err)
		}
		want, err := it.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i]
		if got == nil {
			t.Fatalf("request %d has no result", i)
		}
		if string(got.Output) != string(want.Output) {
			t.Errorf("request %d output %x, standalone %x", i, got.Output, want.Output)
		}
		if got.Steps != want.Steps || got.EncUpdates != want.EncUpdates {
			t.Errorf("request %d steps/enc (%d, %d), standalone (%d, %d)",
				i, got.Steps, got.EncUpdates, want.Steps, want.EncUpdates)
		}
		if got.Crashed() != want.Crashed() {
			t.Errorf("request %d crashed=%v, standalone %v", i, got.Crashed(), want.Crashed())
		}
		// Every request — benign or attack — must read the safe value:
		// the UAF is neutralized by the deferred free.
		if out := (prog.Value{Bytes: got.Output}).Uint(); out != 0x5AFE {
			t.Errorf("request %d read %#x, want 0x5AFE", i, out)
		}
	}

	st := f.Stats()
	if st.Requests != 16 || st.Crashes != 0 {
		t.Errorf("Requests=%d Crashes=%d, want 16, 0", st.Requests, st.Crashes)
	}
	if st.Resets != 16 {
		t.Errorf("Resets=%d, want 16 (one per request)", st.Resets)
	}
	if st.ContextsBuilt > 4 {
		t.Errorf("ContextsBuilt=%d, want <= 4 workers (one context per worker)", st.ContextsBuilt)
	}
	// Stats merge: the patched obj allocation fires once per request.
	if st.Defense.PatchedAllocs != 16 {
		t.Errorf("merged PatchedAllocs=%d, want 16", st.Defense.PatchedAllocs)
	}
	if st.Defense.DeferredFrees != 16 {
		t.Errorf("merged DeferredFrees=%d, want 16", st.Defense.DeferredFrees)
	}
	if st.Defense.QueueBytes != 0 {
		t.Errorf("merged QueueBytes=%d, want 0 (gauge excluded)", st.Defense.QueueBytes)
	}
}

// TestFleetCrashIsolation: a request that runs into its guard page
// crashes alone; its worker recycles the context and later requests
// (including on that same worker) are untouched.
func TestFleetCrashIsolation(t *testing.T) {
	p := overflowProgram()
	coder, patches := overflowSetup(t, p)

	inputs := make([][]byte, 12)
	attacks := 0
	for i := range inputs {
		if i%4 == 2 {
			inputs[i] = []byte{1} // overflow request
			attacks++
		} else {
			inputs[i] = []byte{0}
		}
	}

	f := New(Config{Patches: patches})
	results, err := serveAll(f, p, coder, prog.EngineCompiled, 3, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if inputs[i][0] == 1 {
			if !res.Crashed() {
				t.Errorf("overflow request %d did not crash", i)
			} else if !errors.As(res.Fault, new(*mem.FaultError)) {
				t.Errorf("overflow request %d fault = %v, want guard-page fault", i, res.Fault)
			}
			continue
		}
		if res.Crashed() {
			t.Errorf("benign request %d crashed: %v", i, res.Fault)
		}
		if out := (prog.Value{Bytes: res.Output}).Uint(); out != 0x600D {
			t.Errorf("benign request %d read %#x, want 0x600D", i, out)
		}
	}
	st := f.Stats()
	if st.Crashes != uint64(attacks) {
		t.Errorf("Crashes=%d, want %d", st.Crashes, attacks)
	}
	if st.Requests != uint64(len(inputs)) {
		t.Errorf("Requests=%d, want %d (service continued past crashes)", st.Requests, len(inputs))
	}
	if st.Defense.GuardPages != uint64(len(inputs)) {
		t.Errorf("GuardPages=%d, want %d (patched site fires every request)", st.Defense.GuardPages, len(inputs))
	}
}

// TestFleetValidation covers config and input edges.
func TestFleetValidation(t *testing.T) {
	f := New(Config{})
	// More workers than inputs: must not deadlock or drop requests.
	res, err := serveAll(f, uafProgram(), nil, prog.EngineCompiled, 2, [][]byte{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] == nil {
		t.Fatal("single-input serve dropped its result")
	}
}

// TestFleetContextsPerWorker: each worker builds exactly one context,
// on its Acquire, and recycles it through every request it serves; a
// second batch's workers build their own.
func TestFleetContextsPerWorker(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	f := New(Config{Patches: patches})
	inputs := [][]byte{{0}, {0xEE}, {0}, {0}, {0xEE}, {0}}
	if _, err := serveAll(f, p, coder, prog.EngineCompiled, 2, inputs); err != nil {
		t.Fatal(err)
	}
	if built := f.Stats().ContextsBuilt; built != 2 {
		t.Errorf("first batch built %d contexts, want 2 (one per worker)", built)
	}
	if _, err := serveAll(f, p, coder, prog.EngineCompiled, 2, inputs); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Requests != 12 {
		t.Errorf("Requests=%d, want 12", st.Requests)
	}
	if st.ContextsBuilt != 4 || st.Resets != 12 {
		t.Errorf("ContextsBuilt=%d Resets=%d, want 4 and 12 (built per worker, recycled per request)",
			st.ContextsBuilt, st.Resets)
	}
}

// TestFleetParallelSpeedup: with real cores available, defended
// serving must scale. Skipped on starved runners, where goroutines
// cannot run in parallel.
func TestFleetParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("GOMAXPROCS=%d, need >= 4 for a meaningful scaling check", procs)
	}
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	inputs := make([][]byte, 512)
	for i := range inputs {
		inputs[i] = []byte{0}
	}
	measure := func(workers int) time.Duration {
		f := New(Config{Patches: patches})
		if _, err := serveAll(f, p, coder, prog.EngineCompiled, workers, inputs); err != nil { // warm up
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := serveAll(f, p, coder, prog.EngineCompiled, workers, inputs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := measure(1)
	parallel := measure(4)
	if parallel >= serial {
		t.Errorf("4 workers (%v) not faster than 1 (%v)", parallel, serial)
	}
}
