package heapsim

import (
	"errors"
	"testing"
	"testing/quick"

	"heaptherapy/internal/mem"
)

func newTestPool(t *testing.T) *PoolAllocator {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(space)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolMallocFree(t *testing.T) {
	p := newTestPool(t)
	a, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	usable, err := p.UsableSize(a)
	if err != nil {
		t.Fatal(err)
	}
	if usable < 100 {
		t.Errorf("usable = %d, want >= 100", usable)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	if p.LiveCount() != 0 {
		t.Errorf("LiveCount = %d", p.LiveCount())
	}
}

func TestPoolFIFOReuse(t *testing.T) {
	p := newTestPool(t)
	// Drain the 128-class (one carve = one page = 32 blocks) so the
	// free list is empty, then free two blocks and watch them come back
	// in FIFO order.
	var blocks []uint64
	for i := 0; i < 32; i++ {
		b, err := p.Malloc(100)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	if err := p.Free(blocks[3]); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(blocks[7]); err != nil {
		t.Fatal(err)
	}
	first, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if first != blocks[3] || second != blocks[7] {
		t.Errorf("reuse order = %#x, %#x; want FIFO %#x, %#x", first, second, blocks[3], blocks[7])
	}
}

func TestPoolCallocZeroes(t *testing.T) {
	p := newTestPool(t)
	a, _ := p.Malloc(256)
	_ = p.Space().RawMemset(a, 0xEE, 256)
	_ = p.Free(a)
	// Burn through the class so the dirty block comes back.
	for i := 0; i < 20; i++ {
		b, err := p.Calloc(16, 16)
		if err != nil {
			t.Fatal(err)
		}
		data, err := p.Space().Read(b, 256)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range data {
			if v != 0 {
				t.Fatalf("calloc byte %d = %#x", j, v)
			}
		}
	}
}

func TestPoolMemalign(t *testing.T) {
	p := newTestPool(t)
	for _, align := range []uint64{16, 64, 256, 4096} {
		a, err := p.Memalign(align, 100)
		if err != nil {
			t.Fatalf("Memalign(%d): %v", align, err)
		}
		if a%align != 0 {
			t.Errorf("Memalign(%d) = %#x unaligned", align, a)
		}
		if err := p.Free(a); err != nil {
			t.Fatalf("Free of aligned: %v", err)
		}
	}
	if _, err := p.Memalign(3, 10); !errors.Is(err, ErrBadAlignment) {
		t.Error("bad alignment accepted")
	}
}

func TestPoolRealloc(t *testing.T) {
	p := newTestPool(t)
	a, _ := p.Malloc(64)
	if err := p.Space().Write(a, []byte("pooldata")); err != nil {
		t.Fatal(err)
	}
	b, err := p.Realloc(a, 4000)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := p.Space().Read(b, 8)
	if string(data) != "pooldata" {
		t.Errorf("realloc lost data: %q", data)
	}
	// Shrinking realloc stays in place.
	c, err := p.Realloc(b, 10)
	if err != nil || c != b {
		t.Errorf("shrink moved: %#x vs %#x (%v)", c, b, err)
	}
}

func TestPoolLargeAllocation(t *testing.T) {
	p := newTestPool(t)
	a, err := p.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Space().Memset(a, 1, 1<<20); err != nil {
		t.Fatalf("large block not usable: %v", err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
}

func TestPoolErrors(t *testing.T) {
	p := newTestPool(t)
	if err := p.Free(0xBAD); !errors.Is(err, ErrInvalidPointer) {
		t.Error("bogus free accepted")
	}
	if err := p.Free(0); err != nil {
		t.Error("free(nil) errored")
	}
	a, _ := p.Malloc(64)
	_ = p.Free(a)
	if err := p.Free(a); !errors.Is(err, ErrInvalidPointer) {
		t.Error("double free accepted")
	}
	if _, err := p.Calloc(1<<33, 1<<33); !errors.Is(err, ErrBadSize) {
		t.Error("calloc overflow accepted")
	}
}

// TestQuickPoolRoundTrip property-tests alloc/free cycles.
func TestQuickPoolRoundTrip(t *testing.T) {
	p := newTestPool(t)
	f := func(sizes []uint16) bool {
		var ptrs []uint64
		for _, s := range sizes {
			a, err := p.Malloc(uint64(s) + 1)
			if err != nil {
				return false
			}
			ptrs = append(ptrs, a)
		}
		for _, a := range ptrs {
			if p.Free(a) != nil {
				return false
			}
		}
		return p.LiveCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPoolReallocZeroAlloc pins the pool's moving realloc: a warm
// malloc → realloc (to a larger size class, so the payload is copied)
// → free cycle performs no Go allocation.
func TestPoolReallocZeroAlloc(t *testing.T) {
	p := newTestPool(t)
	if avg := testing.AllocsPerRun(100, func() {
		a, err := p.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Realloc(a, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if b == a {
			t.Fatal("realloc did not move the block")
		}
		if err := p.Free(b); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("pool moving realloc cycle: %.1f allocs/run, want 0", avg)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
