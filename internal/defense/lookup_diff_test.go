package defense

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// refLookup is the naive predecessor of lookup: one checked read of
// the slot per probe. Kept for differential testing.
func (t *patchTable) refLookup(k patch.Key) (patch.TypeMask, int, error) {
	key := packKey(k)
	probes := 0
	for i := mix(key); ; i++ {
		probes++
		b, err := t.space.Read(t.base+(i%t.slots)*slotBytes, slotBytes)
		if err != nil {
			return 0, probes, fmt.Errorf("defense: patch table unreadable: %w", err)
		}
		cur := binary.LittleEndian.Uint64(b)
		if cur == 0 {
			return 0, probes, nil
		}
		if cur == key {
			return patch.TypeMask(binary.LittleEndian.Uint64(b[8:])), probes, nil
		}
	}
}

// randomPatchSet builds a patch set with rng-chosen keys and type masks,
// returning the set plus its key list for positive probes.
func randomPatchSet(rng *rand.Rand, n int) (*patch.Set, []patch.Key) {
	var patches []patch.Patch
	var keys []patch.Key
	fns := []heapsim.AllocFn{heapsim.FnMalloc, heapsim.FnCalloc, heapsim.FnRealloc, heapsim.FnMemalign}
	types := []patch.TypeMask{patch.TypeOverflow, patch.TypeUseAfterFree, patch.TypeUninitRead, patch.AllTypes}
	for i := 0; i < n; i++ {
		p := patch.Patch{
			Fn:    fns[rng.Intn(len(fns))],
			CCID:  rng.Uint64(),
			Types: types[rng.Intn(len(types))],
		}
		if rng.Intn(8) == 0 {
			p.CCID = uint64(rng.Intn(4)) // force key collisions and CCID 0
		}
		patches = append(patches, p)
		keys = append(keys, p.Key())
	}
	return patch.NewSet(patches...), keys
}

// TestDifferentialPatchLookup drives the single-validation lookup and
// the per-word-checked refLookup over random patch sets with a mix of
// present and absent keys, asserting identical type masks, probe
// counts, and error outcomes.
func TestDifferentialPatchLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		set, keys := randomPatchSet(rng, 1+rng.Intn(200))
		table, _ := newTestTable(t, set)
		for q := 0; q < 500; q++ {
			var k patch.Key
			if len(keys) > 0 && rng.Intn(2) == 0 {
				k = keys[rng.Intn(len(keys))]
			} else {
				k = patch.Key{
					Fn:   heapsim.AllocFn(rng.Intn(8)),
					CCID: rng.Uint64(),
				}
			}
			ft, fp, ferr := table.lookup(k)
			rt, rp, rerr := table.refLookup(k)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("lookup(%v@%#x) err = %v, refLookup err = %v", k.Fn, k.CCID, ferr, rerr)
			}
			if ft != rt || fp != rp {
				t.Fatalf("lookup(%v@%#x) = (%v, %d), refLookup = (%v, %d)",
					k.Fn, k.CCID, ft, fp, rt, rp)
			}
		}
	}
}

// TestPrivateTableIsSealedImage pins the private table to SealTable's
// layout: over random patch sets that include keys packing to the same
// word (CCIDs differing only above bit 55, whose types the table ORs)
// and the zero key (stored as the sentinel), the in-space pages hold
// the sealed slots word for word, and the private lookup agrees with
// SealedTable.Lookup on the type mask and the probe count.
func TestPrivateTableIsSealedImage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 30; round++ {
		set, keys := randomPatchSet(rng, rng.Intn(300))
		for i := rng.Intn(4); i > 0 && len(keys) > 0; i-- {
			k := keys[rng.Intn(len(keys))]
			k.CCID ^= uint64(1+rng.Intn(255)) << 56
			set.Add(patch.Patch{Fn: k.Fn, CCID: k.CCID, Types: patch.TypeUninitRead})
			keys = append(keys, k)
		}
		if rng.Intn(2) == 0 {
			set.Add(patch.Patch{Fn: 0, CCID: 0, Types: patch.TypeUseAfterFree})
			keys = append(keys, patch.Key{})
		}
		sealed := SealTable(set)
		table, space := newTestTableFrom(t, sealed)
		if table.slots*2 != uint64(len(sealed.slots)) {
			t.Fatalf("round %d: image has %d slots, sealed table %d", round, table.slots, len(sealed.slots)/2)
		}
		for i, want := range sealed.slots {
			got, err := space.RawLoad64(table.base + uint64(i)*8)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d: image word %d = %#x, sealed slot word %#x", round, i, got, want)
			}
		}
		probe := func(k patch.Key) {
			gt, gp, err := table.lookup(k)
			if err != nil {
				t.Fatalf("private lookup(%v@%#x): %v", k.Fn, k.CCID, err)
			}
			if st, sp := sealed.Lookup(k); gt != st || gp != sp {
				t.Fatalf("round %d key %v@%#x: private (%v, %d probes), sealed (%v, %d probes)",
					round, k.Fn, k.CCID, gt, gp, st, sp)
			}
		}
		for _, k := range keys {
			probe(k)
		}
		for q := 0; q < 200; q++ {
			probe(patch.Key{Fn: heapsim.AllocFn(rng.Intn(8)), CCID: rng.Uint64() >> uint(rng.Intn(64))})
		}
	}
}

// TestDifferentialLookupRevokedTable proves both lookup paths surface a
// revoked (PROT_NONE) table as an error rather than returning a silent
// "no patch" result.
func TestDifferentialLookupRevokedTable(t *testing.T) {
	set := patch.NewSet(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x42, Types: patch.TypeOverflow})
	table, space := newTestTable(t, set)
	if err := space.Mprotect(table.base, table.pages, mem.ProtNone); err != nil {
		t.Fatal(err)
	}
	k := patch.Key{Fn: heapsim.FnMalloc, CCID: 0x42}
	if _, _, err := table.lookup(k); !errors.As(err, new(*mem.FaultError)) {
		t.Errorf("lookup on revoked table err = %v, want fault", err)
	}
	if _, _, err := table.refLookup(k); !errors.As(err, new(*mem.FaultError)) {
		t.Errorf("refLookup on revoked table err = %v, want fault", err)
	}
}

// TestLookupFaultCounted proves the bugfix end to end: a Defender whose
// table pages were revoked reports the allocation as failed and counts
// the fault in Stats, instead of silently allocating unpatched.
func TestLookupFaultCounted(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(space, Config{
		Patches: patch.NewSet(patch.Patch{Fn: heapsim.FnMalloc, CCID: 1, Types: patch.TypeOverflow}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(1, 64); err != nil {
		t.Fatalf("healthy-table Malloc: %v", err)
	}
	if err := space.Mprotect(d.table.base, d.table.pages, mem.ProtNone); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(1, 64); err == nil {
		t.Fatal("Malloc with revoked patch table succeeded; defense silently disabled")
	}
	if got := d.Stats().LookupFaults; got != 1 {
		t.Errorf("Stats().LookupFaults = %d, want 1", got)
	}
}

// TestLookupAllocs pins the zero-allocation guarantee on the patch
// lookup hot path.
func TestLookupAllocs(t *testing.T) {
	set, keys := randomPatchSet(rand.New(rand.NewSource(11)), 64)
	table, _ := newTestTable(t, set)
	miss := patch.Key{Fn: heapsim.FnMalloc, CCID: 0xDEAD_BEEF_F00D}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := table.lookup(keys[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := table.lookup(miss); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("lookup allocates %.1f per op, want 0", avg)
	}
}

// BenchmarkPatchLookup measures hit and miss probes against a
// realistically loaded table.
func BenchmarkPatchLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	set, keys := randomPatchSet(rng, 256)
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		b.Fatal(err)
	}
	table, err := newPatchTable(space, SealTable(set))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := table.lookup(keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := patch.Key{Fn: heapsim.FnMalloc, CCID: uint64(i) * 0x9E37_79B9}
			if _, _, err := table.lookup(k); err != nil {
				b.Fatal(err)
			}
		}
	})
}
