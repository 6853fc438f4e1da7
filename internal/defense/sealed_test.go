package defense

import (
	"math/rand"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// randomSet builds a patch set with n pseudo-random entries.
func randomSet(rng *rand.Rand, n int) *patch.Set {
	set := patch.NewSet()
	fns := []heapsim.AllocFn{heapsim.FnMalloc, heapsim.FnCalloc, heapsim.FnRealloc, heapsim.FnMemalign}
	for i := 0; i < n; i++ {
		set.Add(patch.Patch{
			Fn:    fns[rng.Intn(len(fns))],
			CCID:  rng.Uint64() >> uint(rng.Intn(40)),
			Types: patch.TypeMask(1 + rng.Intn(7)),
		})
	}
	return set
}

// TestSealedTableMatchesInSpaceTable: the shared sealed table must
// agree with the in-space table — type mask AND probe count — for
// present keys, absent keys, and near-miss keys, across table sizes.
func TestSealedTableMatchesInSpaceTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 13, 200, 3000} {
		set := randomSet(rng, n)
		space, err := mem.NewSpace(mem.Config{Limit: 1 << 28})
		if err != nil {
			t.Fatal(err)
		}
		inSpace, err := newPatchTable(space, SealTable(set))
		if err != nil {
			t.Fatal(err)
		}
		sealed := SealTable(set)

		probe := func(k patch.Key) {
			wantTypes, wantProbes, err := inSpace.lookup(k)
			if err != nil {
				t.Fatalf("in-space lookup: %v", err)
			}
			gotTypes, gotProbes := sealed.Lookup(k)
			if gotTypes != wantTypes || gotProbes != wantProbes {
				t.Fatalf("n=%d key=%+v: sealed (%v, %d probes) != in-space (%v, %d probes)",
					n, k, gotTypes, gotProbes, wantTypes, wantProbes)
			}
		}
		for _, p := range set.Patches() {
			probe(p.Key())
		}
		for i := 0; i < 500; i++ {
			probe(patch.Key{
				Fn:   heapsim.AllocFn(1 + rng.Intn(5)),
				CCID: rng.Uint64() >> uint(rng.Intn(40)),
			})
		}
	}
}

// TestDefenderSharedTableBehaviour: a Defender over a shared table must
// behave identically to one with a private in-space table: same
// patched-allocation decisions, same addresses, same stats.
func TestDefenderSharedTableBehaviour(t *testing.T) {
	set := patch.NewSet()
	set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0xC0FFEE, Types: patch.TypeOverflow | patch.TypeUseAfterFree})
	set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0xF00D, Types: patch.TypeUninitRead})

	runDefender := func(d *Defender) ([]uint64, Stats) {
		var addrs []uint64
		for _, ccid := range []uint64{0xC0FFEE, 0xF00D, 0x1234, 0xC0FFEE} {
			p, err := d.Malloc(ccid, 256)
			if err != nil {
				t.Fatalf("malloc ccid %#x: %v", ccid, err)
			}
			addrs = append(addrs, p)
		}
		for _, p := range addrs {
			if err := d.Free(p); err != nil {
				t.Fatalf("free %#x: %v", p, err)
			}
		}
		return addrs, d.Stats()
	}

	spaceA, _ := mem.NewSpace(mem.Config{})
	private, err := New(spaceA, Config{Patches: set})
	if err != nil {
		t.Fatal(err)
	}
	privAddrs, privStats := runDefender(private)

	spaceB, _ := mem.NewSpace(mem.Config{})
	shared, err := New(spaceB, Config{SharedTable: SealTable(set)})
	if err != nil {
		t.Fatal(err)
	}
	sharedStats := func() Stats { return shared.Stats() }
	_ = sharedStats
	sharedAddrs, shStats := runDefender(shared)

	if privStats != shStats {
		t.Errorf("stats diverge: private %+v shared %+v", privStats, shStats)
	}
	if privStats.PatchedAllocs != 3 {
		t.Errorf("PatchedAllocs = %d, want 3", privStats.PatchedAllocs)
	}
	// The shared-table space maps no table pages, so absolute addresses
	// shift by the table size — but the address DELTAS (heap layout
	// decisions) must match exactly.
	for i := 1; i < len(privAddrs); i++ {
		dp := privAddrs[i] - privAddrs[0]
		ds := sharedAddrs[i] - sharedAddrs[0]
		if dp != ds {
			t.Errorf("allocation layout diverges at %d: delta %#x vs %#x", i, dp, ds)
		}
	}
	if shared.table != nil {
		t.Error("shared-table Defender maps a private table")
	}
}

// TestDefenderResetPrivateTable: a standalone Defender (private
// in-space table) must rebuild its sealed table on Reset and behave
// exactly like a fresh one.
func TestDefenderResetPrivateTable(t *testing.T) {
	set := patch.NewSet()
	set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0xBEEF, Types: patch.AllTypes})

	space, _ := mem.NewSpace(mem.Config{})
	d, err := New(space, Config{Patches: set})
	if err != nil {
		t.Fatal(err)
	}
	exercise := func() (uint64, Stats) {
		p, err := d.Malloc(0xBEEF, 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Free(p); err != nil {
			t.Fatal(err)
		}
		q, err := d.Malloc(0x999, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Free(q); err != nil {
			t.Fatal(err)
		}
		return p, d.Stats()
	}
	p1, s1 := exercise()

	space.Reset()
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	if p, _ := space.ProtAt(d.table.base); p&mem.ProtWrite != 0 {
		t.Error("rebuilt patch table is writable")
	}
	p2, s2 := exercise()
	if p1 != p2 {
		t.Errorf("patched allocation at %#x after Reset, want %#x", p2, p1)
	}
	if s1 != s2 {
		t.Errorf("stats after Reset %+v, want %+v", s2, s1)
	}
	if s2.PatchedAllocs != 1 || s2.GuardPages != 1 || s2.DeferredFrees != 1 {
		t.Errorf("patched path not fully exercised after Reset: %+v", s2)
	}
}

// TestDefenderResetSharedTableAllocFree: with a shared table, the
// whole malloc/free + space/defender reset cycle must be free of Go
// allocations in steady state — the fleet's per-request recycle pin.
func TestDefenderResetSharedTableAllocFree(t *testing.T) {
	set := patch.NewSet()
	set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0xBEEF, Types: patch.TypeUninitRead})
	table := SealTable(set)
	space, _ := mem.NewSpace(mem.Config{})
	d, err := New(space, Config{SharedTable: table})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		p, err := d.Malloc(0xBEEF, 128)
		if err != nil {
			t.Fatal(err)
		}
		q, err := d.Malloc(0x77, 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Free(p); err != nil {
			t.Fatal(err)
		}
		if err := d.Free(q); err != nil {
			t.Fatal(err)
		}
		space.Reset()
		if err := d.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
		t.Errorf("shared-table defender recycle allocates %.1f per run, want 0", avg)
	}
}
