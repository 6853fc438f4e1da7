package heapsim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"heaptherapy/internal/mem"
)

func newTestHeap(t testing.TB) *Heap {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	h, err := New(space)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func checkIntegrity(t *testing.T, h *Heap) {
	t.Helper()
	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("heap integrity: %v", err)
	}
}

func TestMallocBasic(t *testing.T) {
	h := newTestHeap(t)
	p, err := h.Malloc(100)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if p == 0 {
		t.Fatal("Malloc returned nil pointer")
	}
	if p%16 != 0 {
		t.Errorf("payload %#x not 16-aligned", p)
	}
	usable, err := h.UsableSize(p)
	if err != nil {
		t.Fatalf("UsableSize: %v", err)
	}
	if usable < 100 {
		t.Errorf("UsableSize = %d, want >= 100", usable)
	}
	checkIntegrity(t, h)
}

func TestMallocZeroSize(t *testing.T) {
	h := newTestHeap(t)
	p, err := h.Malloc(0)
	if err != nil {
		t.Fatalf("Malloc(0): %v", err)
	}
	if p == 0 {
		t.Fatal("Malloc(0) returned nil; want unique pointer like glibc")
	}
	if err := h.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	checkIntegrity(t, h)
}

func TestMallocDistinctPointers(t *testing.T) {
	h := newTestHeap(t)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		p, err := h.Malloc(uint64(8 + i))
		if err != nil {
			t.Fatalf("Malloc #%d: %v", i, err)
		}
		if seen[p] {
			t.Fatalf("Malloc returned duplicate pointer %#x", p)
		}
		seen[p] = true
	}
	checkIntegrity(t, h)
}

func TestWriteDoesNotOverlapNeighbor(t *testing.T) {
	h := newTestHeap(t)
	a, _ := h.Malloc(64)
	b, _ := h.Malloc(64)
	ua, _ := h.UsableSize(a)
	if err := h.Space().Write(a, make([]byte, ua)); err != nil {
		t.Fatalf("Write a: %v", err)
	}
	marker := []byte{0xEE}
	if err := h.Space().Write(b, marker); err != nil {
		t.Fatalf("Write b: %v", err)
	}
	got, _ := h.Space().Read(b, 1)
	if got[0] != 0xEE {
		t.Error("writing a's full usable size corrupted b")
	}
	checkIntegrity(t, h)
}

func TestFreeAndReuse(t *testing.T) {
	h := newTestHeap(t)
	p, err := h.Malloc(128)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := h.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	// LIFO bin reuse: an identical request gets the same block back.
	// This is exactly the behavior use-after-free exploits depend on.
	q, err := h.Malloc(128)
	if err != nil {
		t.Fatalf("Malloc after free: %v", err)
	}
	if q != p {
		t.Errorf("Malloc after free = %#x, want reused %#x", q, p)
	}
	checkIntegrity(t, h)
}

func TestDoubleFreeDetected(t *testing.T) {
	h := newTestHeap(t)
	p, _ := h.Malloc(64)
	if err := h.Free(p); err != nil {
		t.Fatalf("first Free: %v", err)
	}
	if err := h.Free(p); !errors.Is(err, ErrInvalidPointer) {
		t.Errorf("double Free err = %v, want ErrInvalidPointer", err)
	}
}

func TestFreeInvalidPointer(t *testing.T) {
	h := newTestHeap(t)
	if err := h.Free(0xDEAD); !errors.Is(err, ErrInvalidPointer) {
		t.Errorf("Free(bogus) err = %v, want ErrInvalidPointer", err)
	}
	if err := h.Free(0); err != nil {
		t.Errorf("Free(0) err = %v, want nil (no-op)", err)
	}
}

func TestCallocZeroes(t *testing.T) {
	h := newTestHeap(t)
	// Dirty a block, free it, then calloc the same size: memory must be
	// zeroed even though the allocator reuses the dirty block.
	p, _ := h.Malloc(256)
	if err := h.Space().Memset(p, 0xFF, 256); err != nil {
		t.Fatalf("Memset: %v", err)
	}
	if err := h.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	q, err := h.Calloc(16, 16)
	if err != nil {
		t.Fatalf("Calloc: %v", err)
	}
	if q != p {
		t.Logf("calloc did not reuse the block (got %#x, had %#x); still checking zeroing", q, p)
	}
	data, _ := h.Space().Read(q, 256)
	for i, b := range data {
		if b != 0 {
			t.Fatalf("calloc byte %d = %#x, want 0", i, b)
		}
	}
	checkIntegrity(t, h)
}

func TestCallocOverflow(t *testing.T) {
	h := newTestHeap(t)
	if _, err := h.Calloc(1<<33, 1<<33); !errors.Is(err, ErrBadSize) {
		t.Errorf("Calloc overflow err = %v, want ErrBadSize", err)
	}
}

func TestCoalescing(t *testing.T) {
	h := newTestHeap(t)
	a, _ := h.Malloc(64)
	b, _ := h.Malloc(64)
	c, _ := h.Malloc(64)
	_, _ = h.Malloc(64) // pin so c does not merge into top

	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(c); err != nil {
		t.Fatal(err)
	}
	checkIntegrity(t, h)
	before := h.Stats().Coalesces
	if err := h.Free(b); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().Coalesces - before; got != 2 {
		t.Errorf("freeing middle chunk coalesced %d times, want 2", got)
	}
	checkIntegrity(t, h)

	// The merged region services a request no single original chunk fits.
	p, err := h.Malloc(180)
	if err != nil {
		t.Fatalf("Malloc from merged region: %v", err)
	}
	if p != a {
		t.Errorf("merged allocation at %#x, want reuse of first chunk %#x", p, a)
	}
	checkIntegrity(t, h)
}

func TestSplitLargeChunk(t *testing.T) {
	h := newTestHeap(t)
	p, _ := h.Malloc(1024)
	_, _ = h.Malloc(16) // pin
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	before := h.Stats().Splits
	q, err := h.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("small alloc = %#x, want split from freed %#x", q, p)
	}
	if h.Stats().Splits != before+1 {
		t.Errorf("Splits = %d, want %d", h.Stats().Splits, before+1)
	}
	checkIntegrity(t, h)
}

func TestMemalign(t *testing.T) {
	h := newTestHeap(t)
	for _, align := range []uint64{16, 32, 64, 256, 4096} {
		p, err := h.Memalign(align, 100)
		if err != nil {
			t.Fatalf("Memalign(%d): %v", align, err)
		}
		if p%align != 0 {
			t.Errorf("Memalign(%d) = %#x, not aligned", align, p)
		}
		usable, err := h.UsableSize(p)
		if err != nil {
			t.Fatalf("UsableSize: %v", err)
		}
		if usable < 100 {
			t.Errorf("Memalign(%d) usable = %d, want >= 100", align, usable)
		}
		checkIntegrity(t, h)
	}
}

func TestMemalignBadAlignment(t *testing.T) {
	h := newTestHeap(t)
	for _, align := range []uint64{0, 3, 24, 100} {
		if _, err := h.Memalign(align, 64); !errors.Is(err, ErrBadAlignment) {
			t.Errorf("Memalign(%d) err = %v, want ErrBadAlignment", align, err)
		}
	}
}

func TestMemalignFreeRoundTrip(t *testing.T) {
	h := newTestHeap(t)
	p, err := h.Memalign(512, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatalf("Free of memaligned buffer: %v", err)
	}
	checkIntegrity(t, h)
}

func TestReallocGrowAndShrink(t *testing.T) {
	h := newTestHeap(t)
	p, _ := h.Malloc(64)
	payload := []byte("context-sensitive patches")
	if err := h.Space().Write(p, payload); err != nil {
		t.Fatal(err)
	}

	q, err := h.Realloc(p, 4096)
	if err != nil {
		t.Fatalf("Realloc grow: %v", err)
	}
	got, _ := h.Space().Read(q, uint64(len(payload)))
	if string(got) != string(payload) {
		t.Errorf("after grow, data = %q, want %q", got, payload)
	}
	checkIntegrity(t, h)

	r, err := h.Realloc(q, 16)
	if err != nil {
		t.Fatalf("Realloc shrink: %v", err)
	}
	if r != q {
		t.Errorf("shrinking realloc moved the buffer from %#x to %#x", q, r)
	}
	got, _ = h.Space().Read(r, 16)
	if string(got) != string(payload[:16]) {
		t.Errorf("after shrink, data = %q, want %q", got, payload[:16])
	}
	checkIntegrity(t, h)
}

func TestReallocNilIsMalloc(t *testing.T) {
	h := newTestHeap(t)
	p, err := h.Realloc(0, 64)
	if err != nil {
		t.Fatalf("Realloc(0, 64): %v", err)
	}
	if p == 0 {
		t.Fatal("Realloc(0, 64) returned nil")
	}
}

func TestReallocInvalid(t *testing.T) {
	h := newTestHeap(t)
	if _, err := h.Realloc(0xBAD, 64); !errors.Is(err, ErrInvalidPointer) {
		t.Errorf("Realloc(bogus) err = %v, want ErrInvalidPointer", err)
	}
}

func TestReallocExpandsIntoFreeNeighbor(t *testing.T) {
	h := newTestHeap(t)
	a, _ := h.Malloc(64)
	b, _ := h.Malloc(256)
	_, _ = h.Malloc(16) // pin
	if err := h.Free(b); err != nil {
		t.Fatal(err)
	}
	q, err := h.Realloc(a, 200)
	if err != nil {
		t.Fatalf("Realloc: %v", err)
	}
	if q != a {
		t.Errorf("realloc moved to %#x despite free neighbor; want in-place at %#x", q, a)
	}
	checkIntegrity(t, h)
}

func TestStatsAccounting(t *testing.T) {
	h := newTestHeap(t)
	p1, _ := h.Malloc(100)
	p2, _ := h.Calloc(10, 10)
	st := h.Stats()
	if st.Mallocs != 1 || st.Callocs != 1 {
		t.Errorf("Mallocs, Callocs = %d, %d; want 1, 1", st.Mallocs, st.Callocs)
	}
	if st.InUseChunks != 2 {
		t.Errorf("InUseChunks = %d, want 2", st.InUseChunks)
	}
	if st.InUseBytes < 200 {
		t.Errorf("InUseBytes = %d, want >= 200", st.InUseBytes)
	}
	_ = h.Free(p1)
	_ = h.Free(p2)
	st = h.Stats()
	if st.InUseChunks != 0 || st.InUseBytes != 0 {
		t.Errorf("after frees InUseChunks, InUseBytes = %d, %d; want 0, 0", st.InUseChunks, st.InUseBytes)
	}
	if st.PeakInUseBytes < 200 {
		t.Errorf("PeakInUseBytes = %d, want >= 200", st.PeakInUseBytes)
	}
}

func TestArenaGrowth(t *testing.T) {
	h := newTestHeap(t)
	var ptrs []uint64
	for i := 0; i < 100; i++ {
		p, err := h.Malloc(64 * 1024)
		if err != nil {
			t.Fatalf("Malloc 64K #%d: %v", i, err)
		}
		ptrs = append(ptrs, p)
	}
	if h.Stats().ArenaBytes < 100*64*1024 {
		t.Errorf("ArenaBytes = %d, want >= %d", h.Stats().ArenaBytes, 100*64*1024)
	}
	for _, p := range ptrs {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	checkIntegrity(t, h)
}

func TestAllocFnString(t *testing.T) {
	cases := map[AllocFn]string{
		FnMalloc:       "malloc",
		FnCalloc:       "calloc",
		FnRealloc:      "realloc",
		FnMemalign:     "memalign",
		FnAlignedAlloc: "aligned_alloc",
	}
	for fn, want := range cases {
		if got := fn.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", fn, got, want)
		}
		parsed, err := ParseAllocFn(want)
		if err != nil || parsed != fn {
			t.Errorf("ParseAllocFn(%q) = %v, %v; want %v", want, parsed, err, fn)
		}
	}
	if _, err := ParseAllocFn("mmap"); err == nil {
		t.Error("ParseAllocFn(mmap) succeeded, want error")
	}
}

// TestRandomizedWorkload drives a long random alloc/free/realloc
// sequence, verifying integrity and payload preservation throughout.
func TestRandomizedWorkload(t *testing.T) {
	h := newTestHeap(t)
	rng := rand.New(rand.NewSource(42))
	type block struct {
		ptr  uint64
		size uint64
		tag  byte
	}
	var blocks []block

	writeTag := func(b block) {
		if err := h.Space().Memset(b.ptr, b.tag, b.size); err != nil {
			t.Fatalf("Memset: %v", err)
		}
	}
	verifyTag := func(b block) {
		data, err := h.Space().Read(b.ptr, b.size)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		for i, v := range data {
			if v != b.tag {
				t.Fatalf("block %#x byte %d = %#x, want %#x (neighbor corruption)", b.ptr, i, v, b.tag)
			}
		}
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(blocks) == 0: // malloc
			size := uint64(1 + rng.Intn(2000))
			var p uint64
			var err error
			switch rng.Intn(3) {
			case 0:
				p, err = h.Malloc(size)
			case 1:
				p, err = h.Calloc(size/8+1, 8)
				size = (size/8 + 1) * 8
			default:
				align := uint64(16 << rng.Intn(5))
				p, err = h.Memalign(align, size)
				if err == nil && p%align != 0 {
					t.Fatalf("step %d: memalign %d returned unaligned %#x", step, align, p)
				}
			}
			if err != nil {
				t.Fatalf("step %d: alloc: %v", step, err)
			}
			b := block{ptr: p, size: size, tag: byte(step)}
			writeTag(b)
			blocks = append(blocks, b)
		case op < 7: // free
			i := rng.Intn(len(blocks))
			verifyTag(blocks[i])
			if err := h.Free(blocks[i].ptr); err != nil {
				t.Fatalf("step %d: free: %v", step, err)
			}
			blocks[i] = blocks[len(blocks)-1]
			blocks = blocks[:len(blocks)-1]
		default: // realloc
			i := rng.Intn(len(blocks))
			verifyTag(blocks[i])
			newSize := uint64(1 + rng.Intn(3000))
			p, err := h.Realloc(blocks[i].ptr, newSize)
			if err != nil {
				t.Fatalf("step %d: realloc: %v", step, err)
			}
			keep := blocks[i].size
			if newSize < keep {
				keep = newSize
			}
			data, err := h.Space().Read(p, keep)
			if err != nil {
				t.Fatalf("step %d: read after realloc: %v", step, err)
			}
			for j, v := range data {
				if v != blocks[i].tag {
					t.Fatalf("step %d: realloc lost byte %d (%#x != %#x)", step, j, v, blocks[i].tag)
				}
			}
			blocks[i].ptr = p
			blocks[i].size = newSize
			writeTag(blocks[i])
		}
		if step%250 == 0 {
			checkIntegrity(t, h)
		}
	}
	for _, b := range blocks {
		verifyTag(b)
		if err := h.Free(b.ptr); err != nil {
			t.Fatal(err)
		}
	}
	checkIntegrity(t, h)
	if h.LiveCount() != 0 {
		t.Errorf("LiveCount = %d after freeing everything, want 0", h.LiveCount())
	}
}

// TestQuickMallocAligned property-tests payload alignment and usable
// size across arbitrary request sizes.
func TestQuickMallocAligned(t *testing.T) {
	h := newTestHeap(t)
	f := func(sz uint16) bool {
		p, err := h.Malloc(uint64(sz))
		if err != nil {
			return false
		}
		usable, err := h.UsableSize(p)
		if err != nil || usable < uint64(sz) {
			return false
		}
		if p%16 != 0 {
			return false
		}
		return h.Free(p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	checkIntegrity(t, h)
}

// TestQuickFreeListRoundTrip property-tests that interleaved allocation
// batches always free cleanly and integrity holds.
func TestQuickFreeListRoundTrip(t *testing.T) {
	h := newTestHeap(t)
	f := func(sizes []uint16) bool {
		ptrs := make([]uint64, 0, len(sizes))
		for _, s := range sizes {
			p, err := h.Malloc(uint64(s) + 1)
			if err != nil {
				return false
			}
			ptrs = append(ptrs, p)
		}
		// Free in alternating order to exercise coalescing patterns.
		for i := 0; i < len(ptrs); i += 2 {
			if h.Free(ptrs[i]) != nil {
				return false
			}
		}
		for i := 1; i < len(ptrs); i += 2 {
			if h.Free(ptrs[i]) != nil {
				return false
			}
		}
		return h.CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestArenaDiscontiguityDetected: if another segment claims the break
// between arena growths, the allocator must fail loudly rather than
// treat foreign pages as its own.
func TestArenaDiscontiguityDetected(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(space)
	if err != nil {
		t.Fatal(err)
	}
	// A foreign mapping (like a late-constructed table) steals the break.
	if _, err := space.Sbrk(mem.PageSize); err != nil {
		t.Fatal(err)
	}
	// Force the arena to grow past its initial page.
	_, err = h.Malloc(64 * 1024)
	if err == nil || !strings.Contains(err.Error(), "discontiguous") {
		t.Errorf("Malloc after foreign sbrk err = %v, want discontiguity error", err)
	}
}
