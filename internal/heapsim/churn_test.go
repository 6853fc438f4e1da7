package heapsim

import (
	"math/rand"
	"testing"
)

// churnSlots is how many allocations the churn script keeps at once.
const churnSlots = 256

// churnOp is one step of the churn script: on an empty slot it
// allocates size bytes; on a full one it reallocates to size bytes or
// frees.
type churnOp struct {
	slot    uint16
	size    uint32
	realloc bool
}

// churnScript draws a seeded malloc/free/realloc mix: mostly small-bin
// sizes, one request in eight in the large bins.
func churnScript(seed int64, n int) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]churnOp, n)
	for i := range ops {
		size := 1 + rng.Intn(smallBinMax)
		if rng.Intn(8) == 0 {
			size = smallBinMax + rng.Intn(8<<10)
		}
		ops[i] = churnOp{slot: uint16(rng.Intn(churnSlots)), size: uint32(size), realloc: rng.Intn(3) == 0}
	}
	return ops
}

// churner replays a churn script over a heap. After the last step it
// frees every slot, which coalesces the whole arena back into top, so
// every pass after the first starts from the same heap and reuses the
// arena the first pass grew.
type churner struct {
	h     *Heap
	ops   []churnOp
	slots [churnSlots]uint64
	k     int
}

func newChurner(tb testing.TB) *churner {
	tb.Helper()
	c := &churner{h: newTestHeap(tb), ops: churnScript(1, 4096)}
	c.pass(tb) // warm: grow the arena and the live bitmap once
	return c
}

// step runs the next script step.
func (c *churner) step(tb testing.TB) {
	op := c.ops[c.k]
	p := &c.slots[op.slot]
	var err error
	switch {
	case *p == 0:
		*p, err = c.h.Malloc(uint64(op.size))
	case op.realloc:
		*p, err = c.h.Realloc(*p, uint64(op.size))
	default:
		err = c.h.Free(*p)
		*p = 0
	}
	if err != nil {
		tb.Fatalf("churn step %d: %v", c.k, err)
	}
	if c.k++; c.k == len(c.ops) {
		c.k = 0
		for i, p := range c.slots {
			if p != 0 {
				if err := c.h.Free(p); err != nil {
					tb.Fatalf("churn teardown: %v", err)
				}
				c.slots[i] = 0
			}
		}
	}
}

// pass runs the script once, from an empty heap back to an empty heap.
func (c *churner) pass(tb testing.TB) {
	for range c.ops {
		c.step(tb)
	}
}

// BenchmarkHeapChurn times one step of a seeded malloc/free/realloc
// mix on a warmed heap: the heapsim layer of the allocation path.
func BenchmarkHeapChurn(b *testing.B) {
	c := newChurner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step(b)
	}
}

// TestHeapChurnZeroAlloc pins the warmed churn at 0 allocations per
// step: bin search, liveness, coalescing and the realloc copy all work
// in place.
func TestHeapChurnZeroAlloc(t *testing.T) {
	c := newChurner(t)
	if err := c.h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(5, func() { c.pass(t) }); avg != 0 {
		t.Errorf("warm churn pass allocates %.1f per run, want 0", avg)
	}
	if err := c.h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
