package defense

import (
	"errors"
	"testing"
	"testing/quick"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// TestQuickMetadataRoundTrip property-tests the Figure 6 metadata word
// across random sizes, alignments, and vulnerability masks: the size
// and alignment must round-trip through allocation, UsableSize, and
// free, for every structure S1-S4.
func TestQuickMetadataRoundTrip(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One defender per property run is too slow; share one with a
	// patch for every mask at distinct CCIDs.
	set := patch.NewSet()
	for m := patch.TypeMask(1); m <= patch.AllTypes; m++ {
		set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: uint64(m), Types: m})
		set.Add(patch.Patch{Fn: heapsim.FnMemalign, CCID: uint64(m), Types: m})
	}
	d, err := New(space, Config{Patches: set})
	if err != nil {
		t.Fatal(err)
	}

	f := func(sizeSeed uint16, alignPow uint8, mask uint8) bool {
		size := uint64(sizeSeed)%8000 + 1
		m := patch.TypeMask(mask) & patch.AllTypes
		ccid := uint64(m) // matches the planted patch (0 = unpatched)

		aligned := alignPow%2 == 1
		var (
			p   uint64
			err error
		)
		if aligned {
			align := uint64(16) << (alignPow % 6) // 16..512
			p, err = d.Memalign(ccid, align, size)
			if err != nil {
				return false
			}
			if p%align != 0 {
				return false
			}
		} else {
			p, err = d.Malloc(ccid, size)
			if err != nil {
				return false
			}
		}
		got, err := d.ops.usable(d, p)
		if err != nil || got != size {
			return false
		}
		if err := d.Free(p); err != nil {
			return false
		}
		return d.Heap().CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMetadataWordBitLayout pins the exact Figure 6 bit layout so the
// format cannot drift silently.
func TestMetadataWordBitLayout(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const ccid = 0x31
	d, err := New(space, Config{Patches: patch.NewSet(
		patch.Patch{Fn: heapsim.FnMemalign, CCID: ccid, Types: patch.TypeUseAfterFree | patch.TypeUninitRead},
	)})
	if err != nil {
		t.Fatal(err)
	}

	// Structure 3: aligned, no guard. size in bits 4..51, lg(align) in
	// bits 52..57, type field bits 0..3.
	const size, align = 1234, 128
	p, err := d.Memalign(ccid, align, size)
	if err != nil {
		t.Fatal(err)
	}
	word, err := space.RawLoad64(p - 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := word & 0xF; got != bitUAF|bitUninit|bitAligned {
		t.Errorf("type field = %#x, want UAF|UNINIT|ALIGNED", got)
	}
	if got := (word >> 4) & (1<<48 - 1); got != size {
		t.Errorf("size field = %d, want %d", got, size)
	}
	if got := (word >> 52) & 0x3F; got != 7 { // lg(128)
		t.Errorf("lg(align) field = %d, want 7", got)
	}

	// Structure 2: guard, unaligned. guard frame in bits 4..39; the
	// user size lives in the guard page's first word.
	d2, err := New(space, Config{Patches: patch.NewSet(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeOverflow},
	)})
	if err != nil {
		t.Fatal(err)
	}
	q, err := d2.Malloc(ccid, 777)
	if err != nil {
		t.Fatal(err)
	}
	word2, err := space.RawLoad64(q - 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := word2 & 0xF; got != bitOverflow {
		t.Errorf("type field = %#x, want OVERFLOW", got)
	}
	frame := (word2 >> 4) & (1<<36 - 1)
	guard := frame << mem.PageShift
	if guard != mem.PageAlignUp(q+777) {
		t.Errorf("guard frame -> %#x, want %#x", guard, mem.PageAlignUp(q+777))
	}
	sz, err := space.RawLoad64(guard)
	if err != nil {
		t.Fatal(err)
	}
	if sz != 777 {
		t.Errorf("guard-page size word = %d, want 777", sz)
	}
	// The guard page itself must be inaccessible.
	if _, rerr := space.Read(guard, 1); !errors.As(rerr, new(*mem.FaultError)) {
		t.Error("guard page is readable")
	}
}

// TestFreeRecoversUnderlyingPointer pins the Figure 7 pi computation:
// pi = p - sizeof(void*) for plain buffers and pi = p - A for aligned
// ones, by confirming the underlying allocator accepts the free (it
// validates exact payload addresses).
func TestFreeRecoversUnderlyingPointer(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(space, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Malloc(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	q, err := d.Memalign(2, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); err != nil {
		t.Errorf("free of plain buffer: %v", err)
	}
	if err := d.Free(q); err != nil {
		t.Errorf("free of aligned buffer: %v", err)
	}
	if got := d.Heap().LiveCount(); got != 0 {
		t.Errorf("live underlying allocations = %d, want 0", got)
	}
}
