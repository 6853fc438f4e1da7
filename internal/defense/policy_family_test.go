package defense

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// --- Family plumbing: parsing, validation, seam behavior -------------

func TestParseFamily(t *testing.T) {
	cases := []struct {
		in   string
		want Family
	}{
		{"", FamilyHT},
		{"ht", FamilyHT},
		{"HT", FamilyHT},
		{"heaptherapy", FamilyHT},
		{"heaptherapy+", FamilyHT},
		{" ht ", FamilyHT},
		{"shadowbound", FamilyShadowBound},
		{"sb", FamilyShadowBound},
		{"bounds", FamilyShadowBound},
		{"mesh", FamilyMESH},
		{"MESH", FamilyMESH},
	}
	for _, c := range cases {
		got, err := ParseFamily(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseFamily("camp"); err == nil {
		t.Error("ParseFamily accepted an unknown family")
	}
	if _, err := ParseFamily("all"); err == nil {
		t.Error("ParseFamily accepted the list-only value \"all\"")
	}
}

func TestFamilyString(t *testing.T) {
	for _, f := range AllFamilies() {
		if s := f.String(); s == "" || s == fmt.Sprintf("Family(%d)", uint8(f)) {
			t.Errorf("family %d has no name", uint8(f))
		}
	}
	if got := Family(250).String(); got != "Family(250)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestConfigRejectsUnknownFamily(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(space, Config{Family: numFamilies}); err == nil {
		t.Error("New accepted an out-of-range family")
	}
}

func TestInterposeExclusiveToHT(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Family{FamilyShadowBound, FamilyMESH} {
		if _, err := New(space, Config{Family: f, Mode: ModeInterpose}); err == nil {
			t.Errorf("%v accepted interposition-only mode", f)
		}
	}
	if _, err := New(space, Config{Family: FamilyHT, Mode: ModeInterpose}); err != nil {
		t.Errorf("HT rejected interposition-only mode: %v", err)
	}
}

func TestIsContainmentFault(t *testing.T) {
	if !IsContainmentFault(fmt.Errorf("wrapped: %w", ErrOutOfBounds)) {
		t.Error("ErrOutOfBounds not recognized")
	}
	if !IsContainmentFault(fmt.Errorf("wrapped: %w", ErrDoubleFree)) {
		t.Error("ErrDoubleFree not recognized")
	}
	if IsContainmentFault(errors.New("segfault")) || IsContainmentFault(nil) {
		t.Error("wild fault classified as containment")
	}
}

func TestContainmentMatrixShape(t *testing.T) {
	// HT claims everything; the alternatives each disclaim something —
	// the matrix must never silently drift to "everyone contains all".
	if ht := FamilyHT.Containment(); ht != (Containment{true, true, true, true, true, true, true}) {
		t.Errorf("HT containment = %+v, want all true", ht)
	}
	for _, f := range []Family{FamilyShadowBound, FamilyMESH} {
		if f.Containment() == (Containment{true, true, true, true, true, true, true}) {
			t.Errorf("%v claims full containment; its documented misses vanished", f)
		}
	}
}

func TestProbePatchedFalseForNonHT(t *testing.T) {
	set := patches(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x42, Types: patch.TypeOverflow})
	for _, f := range []Family{FamilyShadowBound, FamilyMESH} {
		d := newDefender(t, Config{Family: f, Patches: set})
		if d.ProbePatched(heapsim.FnMalloc, 0x42) {
			t.Errorf("%v reports patch-targeted allocation; only HT consults the table", f)
		}
	}
	d := newDefender(t, Config{Family: FamilyHT, Patches: set})
	if !d.ProbePatched(heapsim.FnMalloc, 0x42) {
		t.Error("HT lost patch probing")
	}
}

func TestNonHTKeepsSharedTableSeams(t *testing.T) {
	// The fleet/serve runtimes swap sealed tables on every rollout
	// regardless of policy; non-HT families must keep the seam alive
	// (generation bump, no error) even though they ignore the contents.
	sealed := SealTable(patches(patch.Patch{Fn: heapsim.FnMalloc, CCID: 1, Types: patch.TypeOverflow}))
	for _, f := range AllFamilies() {
		d := newDefender(t, Config{Family: f, SharedTable: sealed})
		gen := d.TableGeneration()
		next := SealTable(patches(patch.Patch{Fn: heapsim.FnMalloc, CCID: 2, Types: patch.TypeOverflow}))
		if err := d.SwapSharedTable(next); err != nil {
			t.Fatalf("%v: SwapSharedTable: %v", f, err)
		}
		if d.TableGeneration() != gen+1 {
			t.Errorf("%v: generation %d after swap, want %d", f, d.TableGeneration(), gen+1)
		}
		if _, err := d.Malloc(2, 32); err != nil {
			t.Errorf("%v: allocation after swap: %v", f, err)
		}
	}
}

// --- ShadowBound policy ----------------------------------------------

func newPolicyBackend(t *testing.T, f Family) *Backend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(space, Config{Family: f})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestShadowBoundAccessBounds(t *testing.T) {
	b := newPolicyBackend(t, FamilyShadowBound)
	p, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The whole object is readable and writable.
	if err := b.Store(p, prog.Value{Bytes: make([]byte, 64)}, 0); err != nil {
		t.Fatalf("in-bounds store: %v", err)
	}
	if _, err := b.Load(p, 64, 0); err != nil {
		t.Fatalf("in-bounds load: %v", err)
	}
	if _, err := b.Load(p+63, 1, 0); err != nil {
		t.Fatalf("last-byte load: %v", err)
	}

	// One byte past the end faults — read and write alike.
	if _, err := b.Load(p+64, 1, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("overflow load err = %v, want ErrOutOfBounds", err)
	}
	if err := b.Store(p+64, prog.Value{Bytes: []byte{0xAA}}, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("overflow store err = %v, want ErrOutOfBounds", err)
	}
	// A range that starts inside but runs off the end faults too.
	if _, err := b.Load(p+32, 33, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("straddling load err = %v, want ErrOutOfBounds", err)
	}
	// The metadata word ahead of the pointer is off limits.
	if _, err := b.Load(p-8, 8, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("underflow load err = %v, want ErrOutOfBounds", err)
	}
	// So is unowned memory far from any object.
	if _, err := b.Load(p+1<<20, 4, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("wild load err = %v, want ErrOutOfBounds", err)
	}
	// Zero-length accesses are vacuously fine.
	if err := b.Memset(p+64, 0, 0, 0); err != nil {
		t.Errorf("zero-length memset err = %v", err)
	}
}

func TestShadowBoundBlocksOOBWriteBeforeItLands(t *testing.T) {
	// The check runs BEFORE the space is touched: a rejected overflow
	// write must leave the neighboring object's bytes intact.
	b := newPolicyBackend(t, FamilyShadowBound)
	p1, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	canary := bytes.Repeat([]byte{0x5A}, 32)
	if err := b.Store(p2, prog.Value{Bytes: canary}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Memset(p1, 0xFF, p2-p1+8, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("overflow memset err = %v, want ErrOutOfBounds", err)
	}
	got, err := b.Load(p2, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes, canary) {
		t.Error("rejected overflow write still mutated the neighbor")
	}
}

func TestShadowBoundMemcpyChecksBothSides(t *testing.T) {
	b := newPolicyBackend(t, FamilyShadowBound)
	p, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Memcpy(q, p, 64, 0); err != nil {
		t.Fatalf("in-bounds memcpy: %v", err)
	}
	if err := b.Memcpy(q, p+32, 64, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("OOB source err = %v, want ErrOutOfBounds", err)
	}
	if err := b.Memcpy(q+32, p, 64, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("OOB destination err = %v, want ErrOutOfBounds", err)
	}
}

func TestShadowBoundDoubleFree(t *testing.T) {
	d := newDefender(t, Config{Family: FamilyShadowBound})
	p, err := d.Malloc(0x1, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); err != nil {
		t.Fatalf("first free: %v", err)
	}
	err = d.Free(p)
	if !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second free err = %v, want ErrDoubleFree", err)
	}
	if !IsContainmentFault(err) {
		t.Error("double-free abort not classified as containment")
	}
	// A wild free of a pointer that was never allocated aborts the
	// same way: no live bounds.
	if err := d.Free(0xDEAD000); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("wild free err = %v, want ErrDoubleFree", err)
	}
}

func TestShadowBoundUsableSizeUnknownPointer(t *testing.T) {
	d := newDefender(t, Config{Family: FamilyShadowBound})
	p, err := d.Malloc(0x1, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.ops.usable(d, p); err != nil || got != 40 {
		t.Fatalf("UsableSize(live) = %d, %v; want 40", got, err)
	}
	if _, err := d.ops.usable(d, p+4); err == nil {
		t.Error("UsableSize of an interior pointer succeeded")
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ops.usable(d, p); err == nil {
		t.Error("UsableSize of a freed pointer succeeded")
	}
}

func TestBoundsIndexInsertRemove(t *testing.T) {
	d := newDefender(t, Config{Family: FamilyShadowBound})
	// Insert out of address order; the index must stay sorted.
	for _, e := range []boundsEntry{{0x3000, 8}, {0x1000, 16}, {0x2000, 24}} {
		d.boundsInsert(e.user, e.size)
	}
	want := []boundsEntry{{0x1000, 16}, {0x2000, 24}, {0x3000, 8}}
	if len(d.bounds) != len(want) {
		t.Fatalf("index length %d, want %d", len(d.bounds), len(want))
	}
	for i, e := range want {
		if d.bounds[i] != e {
			t.Errorf("bounds[%d] = %+v, want %+v", i, d.bounds[i], e)
		}
	}
	if _, ok := d.boundsRemove(0x1500); ok {
		t.Error("removed a pointer that was never inserted")
	}
	if e, ok := d.boundsRemove(0x2000); !ok || e.size != 24 {
		t.Errorf("boundsRemove(0x2000) = %+v, %v", e, ok)
	}
	if len(d.bounds) != 2 || d.bounds[0].user != 0x1000 || d.bounds[1].user != 0x3000 {
		t.Errorf("index after removal: %+v", d.bounds)
	}
}

func TestShadowBoundResetClearsIndex(t *testing.T) {
	b := newPolicyBackend(t, FamilyShadowBound)
	p, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Defender().bounds); n != 0 {
		t.Fatalf("bounds index holds %d stale entries after Reset", n)
	}
	// The stale pointer is dead: accesses fault instead of consulting
	// pre-Reset bounds.
	if _, err := b.Load(p, 8, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("stale-pointer load err = %v, want ErrOutOfBounds", err)
	}
	// And the recycled Defender serves fresh allocations normally.
	q, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load(q, 64, 0); err != nil {
		t.Errorf("post-Reset allocation unusable: %v", err)
	}
}

// --- MESH policy ------------------------------------------------------

func TestMeshRound(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128},
		{4096, 4096}, {65536, 65536}, {65537, mem.PageAlignUp(65537)},
	}
	for _, c := range cases {
		if got := meshRound(c.in); got != c.want {
			t.Errorf("meshRound(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMeshUsableSizeReportsRequested(t *testing.T) {
	d := newDefender(t, Config{Family: FamilyMESH})
	p, err := d.Malloc(0x1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.ops.usable(d, p); err != nil || got != 100 {
		t.Errorf("UsableSize = %d, %v; want the requested 100, not the 128 class", got, err)
	}
}

func TestMeshZeroFillsRecycledMemory(t *testing.T) {
	d := newDefender(t, Config{Family: FamilyMESH, QueueQuota: 1})
	space := d.Heap().Space()
	secret := []byte("TOP-SECRET-KEY-MATERIAL")

	s, err := d.Malloc(0x1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := space.Write(s, secret); err != nil {
		t.Fatal(err)
	}
	// QueueQuota 1 evicts immediately, so the block really recycles.
	if err := d.Free(s); err != nil {
		t.Fatal(err)
	}
	p, err := d.Malloc(0x2, 128)
	if err != nil {
		t.Fatal(err)
	}
	got, err := space.Read(p, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 128)) {
		t.Error("recycled MESH allocation not zero-filled")
	}
	if d.Stats().ZeroFills != 2 {
		t.Errorf("ZeroFills = %d, want one per allocation", d.Stats().ZeroFills)
	}
}

func TestMeshDoubleFreeWhileQuarantined(t *testing.T) {
	d := newDefender(t, Config{Family: FamilyMESH})
	p, err := d.Malloc(0x1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := d.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("quarantined double free err = %v, want ErrDoubleFree", err)
	}
}

func TestMeshQuarantineDelaysReuse(t *testing.T) {
	d := newDefender(t, Config{Family: FamilyMESH})
	p, err := d.Malloc(0x1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(p); err != nil {
		t.Fatal(err)
	}
	// Under the default quota nothing evicts, so the same class
	// allocation must NOT recycle the quarantined block — the delayed
	// reuse that keeps dangling pointers pointing at dead memory.
	q, err := d.Malloc(0x2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Error("quarantined block recycled immediately")
	}
	st := d.Stats()
	if st.DeferredFrees != 1 || st.QueueEvictions != 0 {
		t.Errorf("stats = %+v, want 1 deferred, 0 evictions", st)
	}
}

func TestMeshQuotaEvictionBoundsQueue(t *testing.T) {
	// A tight quota forces evictions; occupancy stays at or under the
	// quota, and the lapse is visible in the stats (the documented
	// limit of delayed reuse — after eviction the allocator owns the
	// block again).
	const quota = 2048
	d := newDefender(t, Config{Family: FamilyMESH, QueueQuota: quota})
	for i := 0; i < 32; i++ {
		p, err := d.Malloc(0x1, 256)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Free(p); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().QueueBytes; got > quota {
			t.Fatalf("queue occupancy %d exceeds quota %d", got, quota)
		}
	}
	st := d.Stats()
	if st.QueueEvictions == 0 {
		t.Errorf("no evictions under quota pressure: %+v", st)
	}
	if st.DeferredFrees != 32 {
		t.Errorf("DeferredFrees = %d, want 32 (every free quarantined)", st.DeferredFrees)
	}
}

func TestMeshHasNoAccessHook(t *testing.T) {
	// MESH (like HT) must not tax the load/store fast path: an
	// out-of-class access is serviced by the space, not pre-checked.
	b := newPolicyBackend(t, FamilyMESH)
	p, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reading past the requested size but inside the heap succeeds —
	// the documented spatial miss.
	if _, err := b.Load(p+32, 8, 0); err != nil {
		t.Errorf("MESH pre-checked an access: %v", err)
	}
}

// --- genericRealloc (shared by SB and MESH) ---------------------------

func TestPolicyReallocPreservesData(t *testing.T) {
	for _, f := range []Family{FamilyShadowBound, FamilyMESH} {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			d := newDefender(t, Config{Family: f})
			space := d.Heap().Space()
			p, err := d.Malloc(0x1, 40)
			if err != nil {
				t.Fatal(err)
			}
			pattern := bytes.Repeat([]byte{0xC3}, 40)
			if err := space.Write(p, pattern); err != nil {
				t.Fatal(err)
			}

			// Grow: contents move intact.
			q, err := d.Realloc(0x1, p, 200)
			if err != nil {
				t.Fatalf("grow: %v", err)
			}
			got, err := space.Read(q, 40)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pattern) {
				t.Error("grown realloc lost contents")
			}
			if size, err := d.ops.usable(d, q); err != nil || size != 200 {
				t.Errorf("UsableSize after grow = %d, %v; want 200", size, err)
			}

			// Shrink: the prefix survives.
			r, err := d.Realloc(0x1, q, 16)
			if err != nil {
				t.Fatalf("shrink: %v", err)
			}
			got, err = space.Read(r, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pattern[:16]) {
				t.Error("shrunk realloc lost prefix")
			}

			// Realloc of an unknown pointer errors instead of fabricating
			// bounds.
			if _, err := d.Realloc(0x1, 0xBAD000, 64); err == nil {
				t.Error("realloc of an unknown pointer succeeded")
			}
		})
	}
}

func TestShadowBoundReallocRetiresOldBounds(t *testing.T) {
	b := newPolicyBackend(t, FamilyShadowBound)
	p, err := b.Alloc(heapsim.FnMalloc, 0x1, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := b.Realloc(0x1, p, 256)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("realloc did not move (metadata cannot grow in place)")
	}
	// The old pointer's bounds are gone; the new object is fully live.
	if _, err := b.Load(p, 8, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("stale realloc source load err = %v, want ErrOutOfBounds", err)
	}
	if _, err := b.Load(q, 256, 0); err != nil {
		t.Errorf("reallocated object load: %v", err)
	}
}
