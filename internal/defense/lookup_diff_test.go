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
		addr := t.slotAddr(i)
		b, err := t.space.Read(addr, 16)
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
	table, err := newPatchTable(space, set)
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
