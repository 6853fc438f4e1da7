package prog

import (
	"bytes"
	"fmt"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
)

// hookProgram busy-loops for a known statement count so hook
// frequencies are predictable.
func hookProgram() *Program {
	return MustLink(&Program{
		Name: "hooked",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(64)},
				Assign{Dst: "i", E: C(0)},
				While{Cond: Lt(V("i"), C(50)), Body: []Stmt{
					Store{Base: V("p"), Off: V("i"), Src: C(7), N: C(1)},
					Assign{Dst: "i", E: Add(V("i"), C(1))},
				}},
				Output{Base: V("p"), N: C(8)},
				FreeStmt{Ptr: V("p")},
			}},
		},
	})
}

// TestSetQuantumHook verifies the exported hook shim drives every
// engine: the hook fires between statements at the requested period,
// and clearing it stops the callbacks. Each engine runs twice: the
// "-cold" row installs the hook before the executor's first run, the
// plain row on an executor that has already run once without it.
func TestSetQuantumHook(t *testing.T) {
	p := hookProgram()
	for _, ec := range engineConfigs {
		for _, cold := range []bool{false, true} {
			name := ec.Name
			if cold {
				name += "-cold"
			}
			t.Run(name, func(t *testing.T) {
				testQuantumHook(t, p, ec.Engine, cold)
			})
		}
	}
}

func testQuantumHook(t *testing.T, p *Program, engine Engine, cold bool) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewNativeBackend(space)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExec(p, Config{Backend: backend, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if !cold {
		if _, err := ex.Run(nil); err != nil {
			t.Fatal(err)
		}
		space.Reset()
		if err := backend.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	if !SetQuantumHook(ex, 10, func() { calls++ }) {
		t.Fatal("engine does not support quantum hooks")
	}
	res, err := ex.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := int(res.Steps / 10)
	if calls != want {
		t.Errorf("hook fired %d times over %d steps, want %d", calls, res.Steps, want)
	}
	if !SetQuantumHook(ex, 0, nil) {
		t.Fatal("clearing the hook failed")
	}
	space.Reset()
	if err := backend.Reset(); err != nil {
		t.Fatal(err)
	}
	calls = 0
	if _, err := ex.Run(nil); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("cleared hook still fired %d times", calls)
	}
}

// nonRunner is an Exec that is not one of the built-in engines.
type nonRunner struct{}

func (nonRunner) Run([]byte) (*Result, error) { return nil, nil }

func TestSetQuantumHookUnsupported(t *testing.T) {
	if SetQuantumHook(nonRunner{}, 8, func() {}) {
		t.Fatal("SetQuantumHook accepted an Exec without scheduling support")
	}
}

// TestNativeBackendOverPool runs the same allocator-agnostic program
// natively over the boundary-tag heap and the pool allocator: both
// must complete with identical output and step counts (addresses and
// cycle costs legitimately differ between allocators).
func TestNativeBackendOverPool(t *testing.T) {
	p := hookProgram()
	var outputs [][]byte
	var steps []uint64
	for _, kind := range []string{"heap", "pool"} {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var backend *NativeBackend
		if kind == "heap" {
			backend, err = NewNativeBackend(space)
		} else {
			var pool *heapsim.PoolAllocator
			pool, err = heapsim.NewPool(space)
			if err == nil {
				backend, err = NewNativeBackendWithAllocator(space, pool)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if kind == "pool" && backend.Heap() != nil {
			t.Error("Heap() over a pool allocator should be nil")
		}
		if backend.Allocator() == nil {
			t.Error("Allocator() returned nil")
		}
		ex, err := NewExec(p, Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, res.Output)
		steps = append(steps, res.Steps)

		// Reset and rerun: recycled must equal fresh.
		space.Reset()
		if err := backend.Reset(); err != nil {
			t.Fatal(err)
		}
		res2, err := ex.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res2.Output, res.Output) || res2.Steps != res.Steps {
			t.Errorf("%s: recycled run diverged from fresh", kind)
		}
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Errorf("outputs differ across allocators: %x vs %x", outputs[0], outputs[1])
	}
	if steps[0] != steps[1] {
		t.Errorf("steps differ across allocators: %d vs %d", steps[0], steps[1])
	}
}

func TestNewNativeBackendWithAllocatorNil(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNativeBackendWithAllocator(space, nil); err == nil {
		t.Fatal("nil allocator accepted")
	}
}

// fixedAlloc is a minimal Allocator without any Reset method.
type fixedAlloc struct{ next uint64 }

func (f *fixedAlloc) Malloc(size uint64) (uint64, error)     { f.next += 64; return f.next, nil }
func (f *fixedAlloc) Calloc(n, size uint64) (uint64, error)  { return f.Malloc(n * size) }
func (f *fixedAlloc) Realloc(p, size uint64) (uint64, error) { return f.Malloc(size) }
func (f *fixedAlloc) Memalign(a, s uint64) (uint64, error)   { return f.Malloc(s) }
func (f *fixedAlloc) Free(ptr uint64) error                  { return nil }
func (f *fixedAlloc) UsableSize(ptr uint64) (uint64, error)  { return 0, fmt.Errorf("unsupported") }

func TestNativeBackendResetUnsupported(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewNativeBackendWithAllocator(space, &fixedAlloc{next: space.Base()})
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Reset(); err == nil {
		t.Fatal("Reset on a reset-less allocator should error")
	}
}
