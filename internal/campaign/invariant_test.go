package campaign

import (
	"errors"
	"strings"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
)

// brokenChecker always reports (or panics with) a fixed failure.
type brokenChecker struct {
	err      error
	panicMsg string
}

func (b brokenChecker) Malloc(uint64) (uint64, error)           { return 0, nil }
func (b brokenChecker) Calloc(uint64, uint64) (uint64, error)   { return 0, nil }
func (b brokenChecker) Realloc(uint64, uint64) (uint64, error)  { return 0, nil }
func (b brokenChecker) Memalign(uint64, uint64) (uint64, error) { return 0, nil }
func (b brokenChecker) Free(uint64) error                       { return nil }
func (b brokenChecker) UsableSize(uint64) (uint64, error)       { return 0, nil }
func (b brokenChecker) CheckIntegrity() error {
	if b.panicMsg != "" {
		panic(b.panicMsg)
	}
	return b.err
}

func TestWalkerCleanHeap(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := heapsim.New(space)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Malloc(64); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(space, h)
	w.Check()
	w.Check()
	if v := w.Violation(); v != nil {
		t.Fatalf("clean heap: %v", v)
	}
	if w.Checks() != 2 {
		t.Fatalf("Checks() = %d, want 2", w.Checks())
	}
}

// TestWalkerLatchesFirstViolation: the first violation sticks even if
// later audits would report something else (or nothing).
func TestWalkerLatchesFirstViolation(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	first := errors.New("first corruption")
	w := NewWalker(space, brokenChecker{err: first})
	w.Check()
	w.under = brokenChecker{err: errors.New("second corruption")}
	w.Check()
	if v := w.Violation(); v != first {
		t.Fatalf("Violation() = %v, want the first", v)
	}
	if w.Checks() != 2 {
		t.Fatalf("Checks() = %d, want 2", w.Checks())
	}
}

// TestWalkerRecoversCheckerPanic: a panic inside the integrity checker
// (clobbered metadata tripping a load guard) becomes a violation.
func TestWalkerRecoversCheckerPanic(t *testing.T) {
	w := NewWalker(nil, brokenChecker{panicMsg: "heapsim: load beyond break"})
	w.Check()
	v := w.Violation()
	if v == nil || !strings.Contains(v.Error(), "load beyond break") {
		t.Fatalf("Violation() = %v, want recovered panic", v)
	}
}

// TestWalkerNilAllocator: page-state auditing alone still works.
func TestWalkerNilAllocator(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(space, nil)
	w.Check()
	if v := w.Violation(); v != nil {
		t.Fatalf("fresh space: %v", v)
	}
}

// TestWalkerCheckZeroAlloc pins the audit pass at zero allocations on
// a warmed heap and a warmed pool: the walker runs every 128
// statements of every native and defended cell, so anything it
// allocates is paid thousands of times per seed.
func TestWalkerCheckZeroAlloc(t *testing.T) {
	for _, kind := range []AllocKind{AllocHeap, AllocPool} {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var a heapsim.Allocator
		if kind == AllocHeap {
			a, err = heapsim.New(space)
		} else {
			a, err = heapsim.NewPool(space)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Live and freed blocks of several sizes, every other one freed
		// so no two free blocks merge: more binned chunks (or free-list
		// entries) than a small map holds without growing.
		var ptrs []uint64
		for i := 0; i < 32; i++ {
			p, err := a.Malloc([]uint64{24, 100, 700, 3000, 70000}[i%5])
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		for i := 1; i < len(ptrs); i += 2 {
			if err := a.Free(ptrs[i]); err != nil {
				t.Fatal(err)
			}
		}
		w := NewWalker(space, a)
		w.Check() // warm the checker's scratch
		if avg := testing.AllocsPerRun(100, w.Check); avg != 0 {
			t.Errorf("%v: Walker.Check allocates %.1f per pass, want 0", kind, avg)
		}
		if v := w.Violation(); v != nil {
			t.Fatalf("%v: %v", kind, v)
		}
	}
}
