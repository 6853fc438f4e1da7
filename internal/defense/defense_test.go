package defense

import (
	"errors"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

func newDefender(t *testing.T, cfg Config) *Defender {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func patches(ps ...patch.Patch) *patch.Set { return patch.NewSet(ps...) }

func TestUnpatchedAllocationWorks(t *testing.T) {
	d := newDefender(t, Config{})
	p, err := d.Malloc(0x1, 100)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	size, err := d.ops.usable(d, p)
	if err != nil {
		t.Fatalf("UsableSize: %v", err)
	}
	if size != 100 {
		t.Errorf("UsableSize = %d, want 100 (defense stores exact size)", size)
	}
	if err := d.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	st := d.Stats()
	if st.Allocs != 1 || st.Frees != 1 || st.Lookups != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.PatchedAllocs != 0 || st.GuardPages != 0 || st.ZeroFills != 0 {
		t.Errorf("unpatched alloc triggered enhancements: %+v", st)
	}
}

func TestGuardPageStopsOverflow(t *testing.T) {
	const ccid = 0x42
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeOverflow},
	)})
	p, err := d.Malloc(ccid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats().GuardPages != 1 {
		t.Fatal("no guard page installed for patched allocation")
	}

	space := d.Heap().Space()
	// Writing within bounds works.
	if err := space.Write(p, make([]byte, 64)); err != nil {
		t.Fatalf("in-bounds write: %v", err)
	}
	// A contiguous overflow reaches the guard page and faults.
	guard := mem.PageAlignUp(p + 64)
	if err := space.Write(p, make([]byte, guard-p+1)); !errors.As(err, new(*mem.FaultError)) {
		t.Errorf("overflow into guard err = %v, want fault", err)
	}
	// Overread faults too.
	if _, err := space.Read(p, guard-p+1); !errors.As(err, new(*mem.FaultError)) {
		t.Errorf("overread into guard err = %v, want fault", err)
	}

	// Freeing unprotects and releases.
	if err := d.Free(p); err != nil {
		t.Fatalf("Free of guarded buffer: %v", err)
	}
	if err := d.Heap().CheckIntegrity(); err != nil {
		t.Fatalf("heap integrity after guarded free: %v", err)
	}
}

func TestUnpatchedContextNoGuard(t *testing.T) {
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x42, Types: patch.TypeOverflow},
	)})
	// Different CCID: no enhancement (precise targeting).
	if _, err := d.Malloc(0x43, 64); err != nil {
		t.Fatal(err)
	}
	// Different function, same CCID: no enhancement.
	if _, err := d.Calloc(0x42, 4, 16); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().PatchedAllocs; got != 0 {
		t.Errorf("PatchedAllocs = %d, want 0", got)
	}
}

func TestZeroFillForUninitRead(t *testing.T) {
	const ccid = 0x7
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeUninitRead},
	)})
	space := d.Heap().Space()

	// Pollute the heap with a secret, then free it so the next
	// allocation reuses the block.
	s, err := d.Malloc(0x1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Write(s, []byte("TOP-SECRET-KEY-MATERIAL")); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(s); err != nil {
		t.Fatal(err)
	}

	p, err := d.Malloc(ccid, 128)
	if err != nil {
		t.Fatal(err)
	}
	data, err := space.Read(p, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("byte %d = %#x; zero-fill defense leaked stale data", i, b)
		}
	}
	if d.Stats().ZeroFills != 1 {
		t.Errorf("ZeroFills = %d, want 1", d.Stats().ZeroFills)
	}
}

func TestUAFDeferredReuse(t *testing.T) {
	const ccid = 0x9
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeUseAfterFree},
	)})
	p, err := d.Malloc(ccid, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	if d.Stats().DeferredFrees != 1 {
		t.Fatalf("DeferredFrees = %d, want 1", d.Stats().DeferredFrees)
	}
	// An attacker grooming the heap with same-size allocations must
	// not receive the deferred block.
	for i := 0; i < 16; i++ {
		q, err := d.Malloc(0x1, 256)
		if err != nil {
			t.Fatal(err)
		}
		if q == p {
			t.Fatal("deferred block was reused immediately")
		}
	}
}

func TestUnpatchedFreeReusesNormally(t *testing.T) {
	d := newDefender(t, Config{})
	p, err := d.Malloc(0x1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	q, err := d.Malloc(0x1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("unpatched allocation did not reuse freed block (%#x vs %#x)", q, p)
	}
}

func TestQueueQuotaEviction(t *testing.T) {
	const ccid = 0x5
	d := newDefender(t, Config{
		QueueQuota: 512,
		Patches: patches(
			patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeUseAfterFree},
		),
	})
	for i := 0; i < 10; i++ {
		p, err := d.Malloc(ccid, 200)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.QueueBytes > 512 {
		t.Errorf("QueueBytes = %d > quota", st.QueueBytes)
	}
	if st.QueueEvictions == 0 {
		t.Error("no evictions despite quota pressure")
	}
	if err := d.Heap().CheckIntegrity(); err != nil {
		t.Fatalf("heap integrity after evictions: %v", err)
	}
}

func TestDoubleFreeOfDeferredBlockDetected(t *testing.T) {
	const ccid = 0x6
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeUseAfterFree},
	)})
	p, _ := d.Malloc(ccid, 64)
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("double free err = %v, want ErrDoubleFree", err)
	}
}

// TestTableIStructures locks in Table I: which buffer structure serves
// each vulnerability-type combination.
func TestTableIStructures(t *testing.T) {
	cases := []struct {
		name      string
		types     patch.TypeMask
		aligned   bool
		wantGuard bool
	}{
		{"none-unaligned", 0, false, false},                                         // S1
		{"uaf", patch.TypeUseAfterFree, false, false},                               // S1
		{"uninit", patch.TypeUninitRead, false, false},                              // S1
		{"uaf+uninit", patch.TypeUseAfterFree | patch.TypeUninitRead, false, false}, // S1
		{"overflow", patch.TypeOverflow, false, true},                               // S2
		{"overflow+uaf", patch.TypeOverflow | patch.TypeUseAfterFree, false, true},  // S2
		{"all", patch.AllTypes, false, true},                                        // S2
		{"none-aligned", 0, true, false},                                            // S3
		{"uaf-aligned", patch.TypeUseAfterFree, true, false},                        // S3
		{"overflow-aligned", patch.TypeOverflow, true, true},                        // S4
		{"all-aligned", patch.AllTypes, true, true},                                 // S4
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const ccid = 0x77
			fn := heapsim.FnMalloc
			if c.aligned {
				fn = heapsim.FnMemalign
			}
			var ps *patch.Set
			if c.types != 0 {
				ps = patches(patch.Patch{Fn: fn, CCID: ccid, Types: c.types})
			}
			d := newDefender(t, Config{Patches: ps})

			var p uint64
			var err error
			if c.aligned {
				p, err = d.Memalign(ccid, 64, 100)
			} else {
				p, err = d.Malloc(ccid, 100)
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.aligned && p%64 != 0 {
				t.Errorf("aligned allocation at %#x not 64-aligned", p)
			}
			hasGuard := d.Stats().GuardPages > 0
			if hasGuard != c.wantGuard {
				t.Errorf("guard page = %v, want %v", hasGuard, c.wantGuard)
			}
			// Size must round-trip through the metadata regardless of
			// structure.
			size, err := d.ops.usable(d, p)
			if err != nil {
				t.Fatal(err)
			}
			if size != 100 {
				t.Errorf("UsableSize = %d, want 100", size)
			}
			// And the buffer must free cleanly.
			if err := d.Free(p); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if err := d.Heap().CheckIntegrity(); err != nil {
				t.Fatalf("heap integrity: %v", err)
			}
		})
	}
}

func TestAlignedGuardedOverflowFaults(t *testing.T) {
	const ccid = 0x88
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMemalign, CCID: ccid, Types: patch.TypeOverflow},
	)})
	p, err := d.Memalign(ccid, 256, 300)
	if err != nil {
		t.Fatal(err)
	}
	space := d.Heap().Space()
	guard := mem.PageAlignUp(p + 300)
	if err := space.Write(p, make([]byte, guard-p+8)); !errors.As(err, new(*mem.FaultError)) {
		t.Errorf("aligned overflow err = %v, want fault", err)
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestReallocPreservesDataAndRekeys(t *testing.T) {
	const oldCCID, newCCID = 0x11, 0x22
	d := newDefender(t, Config{Patches: patches(
		// Only the realloc context is patched for zero-fill.
		patch.Patch{Fn: heapsim.FnRealloc, CCID: newCCID, Types: patch.TypeUninitRead},
	)})
	space := d.Heap().Space()

	p, err := d.Malloc(oldCCID, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Write(p, []byte("keepme__")); err != nil {
		t.Fatal(err)
	}
	q, err := d.Realloc(newCCID, p, 128)
	if err != nil {
		t.Fatal(err)
	}
	data, err := space.Read(q, 128)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:8]) != "keepme__" {
		t.Errorf("realloc lost data: %q", data[:8])
	}
	// Patched realloc context: the grown region must be zero.
	for i := 8; i < 128; i++ {
		if data[i] != 0 {
			t.Fatalf("grown byte %d = %#x, want 0 (zero-fill patch)", i, data[i])
		}
	}
	if d.Stats().PatchedAllocs != 1 {
		t.Errorf("PatchedAllocs = %d, want 1 (realloc matched)", d.Stats().PatchedAllocs)
	}
}

func TestReallocGuardedBuffer(t *testing.T) {
	const ccid = 0x33
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeOverflow},
	)})
	p, err := d.Malloc(ccid, 64)
	if err != nil {
		t.Fatal(err)
	}
	space := d.Heap().Space()
	if err := space.Write(p, []byte("guarded!")); err != nil {
		t.Fatal(err)
	}
	q, err := d.Realloc(0x99, p, 256)
	if err != nil {
		t.Fatalf("Realloc of guarded buffer: %v", err)
	}
	data, _ := space.Read(q, 8)
	if string(data) != "guarded!" {
		t.Errorf("data after realloc = %q", data)
	}
	if err := d.Heap().CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestReallocNilAllocates(t *testing.T) {
	d := newDefender(t, Config{})
	p, err := d.Realloc(0x1, 0, 64)
	if err != nil || p == 0 {
		t.Fatalf("Realloc(nil) = %#x, %v", p, err)
	}
}

func TestInterposeModeForwards(t *testing.T) {
	space, _ := mem.NewSpace(mem.Config{})
	d, err := New(space, Config{Mode: ModeInterpose})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Malloc(0x1, 100)
	if err != nil {
		t.Fatal(err)
	}
	// No metadata in interpose mode: the buffer is the allocator's, and
	// its usable size reflects rounding, not the exact request.
	size, err := d.under.UsableSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if size < 100 {
		t.Errorf("UsableSize = %d, want >= 100", size)
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Lookups != 0 {
		t.Errorf("interpose mode performed %d lookups, want 0", st.Lookups)
	}
}

func TestCallocZeroesInFullMode(t *testing.T) {
	d := newDefender(t, Config{})
	space := d.Heap().Space()
	s, _ := d.Malloc(0x1, 64)
	_ = space.Memset(s, 0xAB, 64)
	_ = d.Free(s)
	p, err := d.Calloc(0x2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := space.Read(p, 64)
	for i, b := range data {
		if b != 0 {
			t.Fatalf("calloc byte %d = %#x", i, b)
		}
	}
}

// TestCombinedOverflowAndUninit is Heartbleed's case: the same buffer
// is vulnerable to both uninitialized read and overflow (Section VI
// challenge 1), so it must get the zero fill AND the guard page.
func TestCombinedOverflowAndUninit(t *testing.T) {
	const ccid = 0xAB
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeOverflow | patch.TypeUninitRead},
	)})
	space := d.Heap().Space()
	// Dirty then free a block to be reused.
	s, _ := d.Malloc(0x1, 4096)
	_ = space.Memset(s, 0x5A, 4096)
	_ = d.Free(s)

	p, err := d.Malloc(ccid, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-filled...
	data, _ := space.Read(p, 1000)
	for i, b := range data {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	// ...and guarded.
	guard := mem.PageAlignUp(p + 1000)
	if _, err := space.Read(p, guard-p+1); !errors.As(err, new(*mem.FaultError)) {
		t.Error("overread did not fault despite combined patch")
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSnapshot(t *testing.T) {
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: 1, Types: patch.TypeUseAfterFree},
	)})
	p, _ := d.Malloc(1, 64)
	_ = d.Free(p)
	st := d.Stats()
	if st.QueueBytes != 64 {
		t.Errorf("QueueBytes = %d, want 64", st.QueueBytes)
	}
	if st.DeferredFrees != 1 {
		t.Errorf("DeferredFrees = %d", st.DeferredFrees)
	}
}

func TestModeString(t *testing.T) {
	if ModeInterpose.String() != "interpose" || ModeFull.String() != "full" {
		t.Error("Mode.String mismatch")
	}
}

// TestReallocOfUAFBufferDefersOldBlock: realloc of a UAF-patched
// buffer must defer the OLD block through the queue (its lifetime
// protection survives the resize).
func TestReallocOfUAFBufferDefersOldBlock(t *testing.T) {
	const ccid = 0x66
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeUseAfterFree},
	)})
	p, err := d.Malloc(ccid, 64)
	if err != nil {
		t.Fatal(err)
	}
	q, err := d.Realloc(0x99, p, 256)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("defended realloc returned the same user pointer; expected move")
	}
	if d.Stats().DeferredFrees != 1 {
		t.Errorf("DeferredFrees = %d, want 1 (old block deferred)", d.Stats().DeferredFrees)
	}
	// The old block must not be recycled while parked.
	for i := 0; i < 8; i++ {
		r, err := d.Malloc(0x1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if r == p {
			t.Fatal("old block recycled despite deferral")
		}
	}
}
