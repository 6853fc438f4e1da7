package heapsim

import (
	"testing"

	"heaptherapy/internal/mem"
)

// churn runs a deterministic allocation workload and returns the
// addresses handed out, exercising splits, coalescing, and realloc.
func churn(t *testing.T, a Allocator) []uint64 {
	t.Helper()
	var addrs []uint64
	var live []uint64
	for i := 0; i < 200; i++ {
		size := uint64(16 + (i*37)%700)
		p, err := a.Malloc(size)
		if err != nil {
			t.Fatalf("malloc %d: %v", size, err)
		}
		addrs = append(addrs, p)
		live = append(live, p)
		if i%3 == 2 {
			victim := live[0]
			live = live[1:]
			if err := a.Free(victim); err != nil {
				t.Fatalf("free %#x: %v", victim, err)
			}
		}
		if i%17 == 16 {
			np, err := a.Realloc(live[len(live)-1], size*2)
			if err != nil {
				t.Fatalf("realloc: %v", err)
			}
			live[len(live)-1] = np
			addrs = append(addrs, np)
		}
	}
	for _, p := range live {
		if err := a.Free(p); err != nil {
			t.Fatalf("teardown free %#x: %v", p, err)
		}
	}
	return addrs
}

// TestHeapResetDeterministic: a Reset heap must hand out the exact
// address sequence a fresh heap does — the property the fleet's
// differential tests build on.
func TestHeapResetDeterministic(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(space)
	if err != nil {
		t.Fatal(err)
	}
	first := churn(t, h)
	space.Reset()
	if err := h.Reset(); err != nil {
		t.Fatal(err)
	}
	second := churn(t, h)
	if len(first) != len(second) {
		t.Fatalf("address counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("address %d differs after Reset: %#x vs %#x", i, first[i], second[i])
		}
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after reset churn: %v", err)
	}
	if h.LiveCount() != 0 {
		t.Errorf("live count %d after teardown", h.LiveCount())
	}
}

// TestPoolResetDeterministic mirrors the heap test for the slab pool.
func TestPoolResetDeterministic(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(space)
	if err != nil {
		t.Fatal(err)
	}
	first := churn(t, p)
	space.Reset()
	p.Reset()
	second := churn(t, p)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("pool address %d differs after Reset: %#x vs %#x", i, first[i], second[i])
		}
	}
	if len(p.live) != 0 {
		t.Errorf("pool live count %d after teardown", len(p.live))
	}
}

// TestHeapResetAllocFree: after one warm epoch, the reset-and-churn
// cycle must not grow the Go heap (the live bitmap, bins, and space
// capacity are all reused).
func TestHeapResetAllocFree(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(space)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		var live []uint64
		for i := 0; i < 32; i++ {
			p, err := h.Malloc(uint64(32 + i*16))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		}
		for _, p := range live {
			if err := h.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		space.Reset()
		if err := h.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm capacity and the live bitmap
	avg := testing.AllocsPerRun(50, func() {
		var live [32]uint64
		for i := 0; i < 32; i++ {
			p, err := h.Malloc(uint64(32 + i*16))
			if err != nil {
				t.Fatal(err)
			}
			live[i] = p
		}
		for _, p := range live {
			if err := h.Free(p); err != nil {
				t.Fatal(err)
			}
		}
		space.Reset()
		if err := h.Reset(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("heap reset cycle allocates %.1f per run, want 0", avg)
	}
}
