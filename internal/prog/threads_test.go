package prog

import (
	"runtime"
	"testing"
	"time"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
)

// serverProgram handles one request: allocate, touch, compute, free,
// echo a request-derived value.
func serverProgram() *Program {
	return MustLink(&Program{
		Name: "mt-server",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Call{Callee: "handle"},
			}},
			"handle": {Body: []Stmt{
				ReadInput{Dst: "id", N: C(1)},
				Alloc{Dst: "conn", Size: C(512)},
				Alloc{Dst: "hdr", Size: C(128)},
				Store{Base: V("conn"), Src: V("id"), N: C(8)},
				Assign{Dst: "i", E: C(0)},
				While{Cond: Lt(V("i"), C(50)), Body: []Stmt{
					Assign{Dst: "x", E: Add(V("i"), V("id"))},
					Assign{Dst: "i", E: Add(V("i"), C(1))},
				}},
				Load{Dst: "back", Base: V("conn"), N: C(8)},
				FreeStmt{Ptr: V("hdr")},
				FreeStmt{Ptr: V("conn")},
				OutputVar{Src: "back"},
			}},
		},
	})
}

func TestRunThreadsSharedHeap(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.Name, func(t *testing.T) {
			p := serverProgram()
			space, err := mem.NewSpace(mem.Config{})
			if err != nil {
				t.Fatal(err)
			}
			backend, err := NewNativeBackend(space)
			if err != nil {
				t.Fatal(err)
			}
			inputs := [][]byte{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
			results, err := RunThreads(p, Config{Backend: backend, Engine: ec.Engine}, inputs, 8)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range results {
				if res.Crashed() {
					t.Fatalf("thread %d crashed: %v", i, res.Fault)
				}
				// Each thread's data survived the shared-heap interleaving: the
				// value written into its connection buffer reads back intact.
				if got := (Value{Bytes: res.Output}).Uint(); got != uint64(i+1) {
					t.Errorf("thread %d echoed %d, want %d (cross-thread corruption?)", i, got, i+1)
				}
			}
			// The shared heap is consistent and leak-free.
			if err := backend.Heap().CheckIntegrity(); err != nil {
				t.Fatalf("shared heap integrity: %v", err)
			}
			if backend.Heap().LiveCount() != 0 {
				t.Errorf("leaked allocations: %d", backend.Heap().LiveCount())
			}
		})
	}
}

func TestRunThreadsDeterministic(t *testing.T) {
	p := serverProgram()
	run := func() []uint64 {
		space, _ := mem.NewSpace(mem.Config{})
		backend, _ := NewNativeBackend(space)
		results, err := RunThreads(p, Config{Backend: backend}, [][]byte{{9}, {8}, {7}}, 4)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(results))
		for i, r := range results {
			out[i] = r.Steps
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic scheduling: steps %v vs %v", a, b)
		}
	}
}

// TestRunThreadsThreadLocalCCID: threads executing the same path must
// observe the same allocation-time CCID (V is thread-local state, not
// global), so one patch covers that context across all threads.
func TestRunThreadsThreadLocalCCID(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.Name, func(t *testing.T) {
			p := serverProgram()
			plan, err := encoding.NewPlan(encoding.SchemeTCS, p.Graph(), p.Targets())
			if err != nil {
				t.Fatal(err)
			}
			coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
			if err != nil {
				t.Fatal(err)
			}
			space, _ := mem.NewSpace(mem.Config{})
			native, _ := NewNativeBackend(space)
			rb := &recordingBackend{HeapBackend: native}
			_, err = RunThreads(p, Config{Backend: rb, Coder: coder, Engine: ec.Engine}, [][]byte{{1}, {2}, {3}}, 4)
			if err != nil {
				t.Fatal(err)
			}
			// 3 threads x 2 allocation sites; per site, all threads must agree.
			if len(rb.ccids) != 6 {
				t.Fatalf("recorded %d CCIDs, want 6", len(rb.ccids))
			}
			distinct := make(map[uint64]int)
			for _, c := range rb.ccids {
				distinct[c]++
			}
			if len(distinct) != 2 {
				t.Fatalf("distinct CCIDs = %d, want 2 (one per allocation site)", len(distinct))
			}
			for c, n := range distinct {
				if n != 3 {
					t.Errorf("CCID %#x seen %d times, want 3 (once per thread)", c, n)
				}
			}
		})
	}
}

func TestRunThreadsValidation(t *testing.T) {
	p := serverProgram()
	space, _ := mem.NewSpace(mem.Config{})
	backend, _ := NewNativeBackend(space)
	if _, err := RunThreads(p, Config{Backend: backend}, nil, 4); err == nil {
		t.Error("RunThreads with no inputs succeeded")
	}
}

func TestRunThreadsSingleThread(t *testing.T) {
	// One thread must behave exactly like a plain Run.
	p := serverProgram()
	space, _ := mem.NewSpace(mem.Config{})
	backend, _ := NewNativeBackend(space)
	results, err := RunThreads(p, Config{Backend: backend}, [][]byte{{5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	space2, _ := mem.NewSpace(mem.Config{})
	backend2, _ := NewNativeBackend(space2)
	it, err := New(p, Config{Backend: backend2})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := it.Run([]byte{5})
	if err != nil {
		t.Fatal(err)
	}
	if string(results[0].Output) != string(plain.Output) || results[0].Steps != plain.Steps {
		t.Error("single-thread RunThreads differs from plain Run")
	}
}

// TestRunThreadsQuantumLargerThanProgram: with a quantum bigger than
// any thread's statement count, no thread ever yields — each runs to
// completion on its first grant — and the results must still match a
// per-thread plain Run over an equivalently interleaved heap. With
// nothing actually interleaving, sequential execution IS that heap
// order, so outputs and step counts match thread by thread.
func TestRunThreadsQuantumLargerThanProgram(t *testing.T) {
	p := serverProgram()
	inputs := [][]byte{{3}, {7}, {11}}

	space, _ := mem.NewSpace(mem.Config{})
	backend, _ := NewNativeBackend(space)
	results, err := RunThreads(p, Config{Backend: backend}, inputs, 1<<40)
	if err != nil {
		t.Fatal(err)
	}

	space2, _ := mem.NewSpace(mem.Config{})
	backend2, _ := NewNativeBackend(space2)
	for i, in := range inputs {
		it, err := New(p, Config{Backend: backend2})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := it.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if string(results[i].Output) != string(plain.Output) {
			t.Errorf("thread %d output %x, sequential run %x", i, results[i].Output, plain.Output)
		}
		if results[i].Steps != plain.Steps {
			t.Errorf("thread %d steps %d, sequential run %d", i, results[i].Steps, plain.Steps)
		}
	}
}

// countGoroutines samples runtime.NumGoroutine with settling retries:
// exiting thread goroutines need a beat to be torn down, so a raw
// before/after comparison is racy. deadline-bounded, returns the first
// sample <= want (or the last sample).
func countGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunThreadsNoGoroutineLeak: every RunThreads invocation — clean
// completion, single thread, huge quantum, and a mid-run crash with
// survivors — must leave the goroutine count where it started. A
// leaked thread goroutine would sit blocked on its grant channel
// forever and show up here.
func TestRunThreadsNoGoroutineLeak(t *testing.T) {
	crashy := MustLink(&Program{
		Name: "crashy-leak",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				ReadInput{Dst: "bad", N: C(1)},
				Alloc{Dst: "p", Size: C(16)},
				If{Cond: Eq(And(V("bad"), C(0xFF)), C(1)), Then: []Stmt{
					StoreBytes{Base: V("p"), Off: C(1 << 33), Data: []byte{1}},
				}},
				FreeStmt{Ptr: V("p")},
				OutputVar{Src: "bad"},
			}},
		},
	})
	before := runtime.NumGoroutine()

	runs := []struct {
		name    string
		p       *Program
		inputs  [][]byte
		quantum uint64
	}{
		{"clean", serverProgram(), [][]byte{{1}, {2}, {3}, {4}}, 8},
		{"single", serverProgram(), [][]byte{{9}}, 4},
		{"huge-quantum", serverProgram(), [][]byte{{5}, {6}}, 1 << 40},
		{"mid-run-crash", crashy, [][]byte{{0}, {1}, {0}, {1}}, 2},
	}
	for _, run := range runs {
		space, _ := mem.NewSpace(mem.Config{})
		backend, err := NewNativeBackend(space)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunThreads(run.p, Config{Backend: backend}, run.inputs, run.quantum); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if after := countGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before, %d after (leak)", run.name, before, after)
		}
	}
}

// TestRunThreadsCrashIsolation: one thread crashing (fault) ends with
// its own Result.Fault while other threads complete.
func TestRunThreadsCrashIsolation(t *testing.T) {
	for _, ec := range engineConfigs {
		t.Run(ec.Name, func(t *testing.T) {
			p := MustLink(&Program{
				Name: "crashy-thread",
				Funcs: map[string]*Func{
					"main": {Body: []Stmt{
						ReadInput{Dst: "bad", N: C(1)},
						Alloc{Dst: "p", Size: C(16)},
						If{Cond: Eq(And(V("bad"), C(0xFF)), C(1)), Then: []Stmt{
							// Wild store far outside the arena: SIGSEGV.
							StoreBytes{Base: V("p"), Off: C(1 << 33), Data: []byte{1}},
						}},
						Assign{Dst: "ok", E: C(0xA11600D)},
						OutputVar{Src: "ok"},
					}},
				},
			})
			space, _ := mem.NewSpace(mem.Config{})
			backend, err := NewNativeBackend(space)
			if err != nil {
				t.Fatal(err)
			}
			results, err := RunThreads(p, Config{Backend: backend, Engine: ec.Engine}, [][]byte{{0}, {1}, {0}}, 4)
			if err != nil {
				t.Fatal(err)
			}
			if results[1].Fault == nil {
				t.Error("faulting thread reported no fault")
			}
			for _, i := range []int{0, 2} {
				if results[i].Crashed() {
					t.Errorf("healthy thread %d crashed: %v", i, results[i].Fault)
				}
				if got := (Value{Bytes: results[i].Output}).Uint(); got != 0xA11600D {
					t.Errorf("thread %d output %#x", i, got)
				}
			}
		})
	}
}
