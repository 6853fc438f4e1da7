package defense

import (
	"errors"
	"testing"
	"testing/quick"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// entryCountForTest walks the table counting populated slots.
func (t *patchTable) entryCountForTest() int {
	n := 0
	for i := uint64(0); i < t.slots; i++ {
		if v, err := t.space.RawLoad64(t.base + i*slotBytes); err == nil && v != 0 {
			n++
		}
	}
	return n
}

func newTestTable(t *testing.T, set *patch.Set) (*patchTable, *mem.Space) {
	t.Helper()
	return newTestTableFrom(t, SealTable(set))
}

// newTestTableFrom writes sealed's image into a fresh space.
func newTestTableFrom(t *testing.T, sealed *SealedTable) (*patchTable, *mem.Space) {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	table, err := newPatchTable(space, sealed)
	if err != nil {
		t.Fatal(err)
	}
	return table, space
}

func TestPatchTableLookup(t *testing.T) {
	set := patch.NewSet(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: 0xABCDEF, Types: patch.TypeOverflow},
		patch.Patch{Fn: heapsim.FnCalloc, CCID: 0xABCDEF, Types: patch.TypeUninitRead},
		patch.Patch{Fn: heapsim.FnMemalign, CCID: 7, Types: patch.AllTypes},
	)
	table, _ := newTestTable(t, set)
	cases := []struct {
		key  patch.Key
		want patch.TypeMask
	}{
		{patch.Key{Fn: heapsim.FnMalloc, CCID: 0xABCDEF}, patch.TypeOverflow},
		{patch.Key{Fn: heapsim.FnCalloc, CCID: 0xABCDEF}, patch.TypeUninitRead},
		{patch.Key{Fn: heapsim.FnMemalign, CCID: 7}, patch.AllTypes},
		{patch.Key{Fn: heapsim.FnMalloc, CCID: 0xABCDE0}, 0},
		{patch.Key{Fn: heapsim.FnRealloc, CCID: 7}, 0},
	}
	for _, c := range cases {
		got, probes, err := table.lookup(c.key)
		if err != nil {
			t.Fatalf("lookup(%v@%#x): %v", c.key.Fn, c.key.CCID, err)
		}
		if got != c.want {
			t.Errorf("lookup(%v@%#x) = %v, want %v", c.key.Fn, c.key.CCID, got, c.want)
		}
		if probes < 1 {
			t.Errorf("lookup reported %d probes", probes)
		}
	}
	if table.entryCountForTest() != 3 {
		t.Errorf("entries = %d, want 3", table.entryCountForTest())
	}
}

func TestPatchTableReadOnly(t *testing.T) {
	set := patch.NewSet(patch.Patch{Fn: heapsim.FnMalloc, CCID: 1, Types: patch.TypeOverflow})
	table, space := newTestTable(t, set)
	if p, _ := space.ProtAt(table.base); p&mem.ProtWrite != 0 {
		t.Fatal("patch table pages are writable after construction")
	}
	// An in-space write to the table — as a heap attack might attempt —
	// faults.
	if err := space.Write(table.base, []byte{0}); !errors.As(err, new(*mem.FaultError)) {
		t.Errorf("write to patch table err = %v, want fault", err)
	}
	// Reads still work.
	if _, err := space.Read(table.base, 16); err != nil {
		t.Errorf("read of patch table: %v", err)
	}
}

func TestPatchTableZeroCCID(t *testing.T) {
	// CCID 0 with Fn 0 would pack to the empty-slot marker; the
	// sentinel must keep it distinguishable. (Fn 0 never occurs in
	// real patches, but the table must not corrupt on it.)
	set := patch.NewSet(patch.Patch{Fn: 0, CCID: 0, Types: patch.TypeOverflow})
	table, _ := newTestTable(t, set)
	if got, _, err := table.lookup(patch.Key{Fn: 0, CCID: 0}); err != nil || got != patch.TypeOverflow {
		t.Errorf("zero-key lookup = %v, want OVERFLOW", got)
	}
}

func TestPatchTableEmpty(t *testing.T) {
	table, _ := newTestTable(t, patch.NewSet())
	if got, _, err := table.lookup(patch.Key{Fn: heapsim.FnMalloc, CCID: 42}); err != nil || got != 0 {
		t.Errorf("empty table lookup = %v, want 0", got)
	}
}

// TestPatchTableManyEntries fills a table well past one page and
// verifies every entry (probing across page boundaries, growth
// sizing).
func TestPatchTableManyEntries(t *testing.T) {
	set := patch.NewSet()
	for i := uint64(0); i < 2000; i++ {
		set.Add(patch.Patch{
			Fn:    heapsim.FnMalloc,
			CCID:  0x1000 + i*7919,
			Types: patch.TypeMask(1 << (i % 3)),
		})
	}
	table, _ := newTestTable(t, set)
	maxProbes := 0
	for _, p := range set.Patches() {
		got, probes, err := table.lookup(p.Key())
		if err != nil {
			t.Fatalf("lookup(%#x): %v", p.CCID, err)
		}
		if got != p.Types {
			t.Fatalf("lookup(%#x) = %v, want %v", p.CCID, got, p.Types)
		}
		if probes > maxProbes {
			maxProbes = probes
		}
	}
	// Load factor <= 0.5 keeps probe chains short.
	if maxProbes > 32 {
		t.Errorf("max probe chain = %d; table too dense", maxProbes)
	}
}

// TestQuickPatchTableAgainstMap property-tests the in-memory table
// against the reference map implementation.
func TestQuickPatchTableAgainstMap(t *testing.T) {
	f := func(ccids []uint64, probe uint64) bool {
		set := patch.NewSet()
		for i, c := range ccids {
			set.Add(patch.Patch{
				Fn:    heapsim.FnMalloc,
				CCID:  c,
				Types: patch.TypeMask(1<<(i%3)) & patch.AllTypes,
			})
		}
		// Patches with zero type mask collapse; ensure nonzero.
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			return false
		}
		table, err := newPatchTable(space, SealTable(set))
		if err != nil {
			return false
		}
		want := map[patch.Key]patch.TypeMask{}
		for _, p := range set.Patches() {
			want[p.Key()] = p.Types
			if got, _, err := table.lookup(p.Key()); err != nil || got != p.Types {
				return false
			}
		}
		probeKey := patch.Key{Fn: heapsim.FnMalloc, CCID: probe}
		got, _, err := table.lookup(probeKey)
		return err == nil && got == want[probeKey]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDefenderExposesTableProtection(t *testing.T) {
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: 9, Types: patch.TypeOverflow},
	)})
	if p, _ := d.space.ProtAt(d.table.base); p&mem.ProtWrite != 0 {
		t.Error("defender's patch table is writable")
	}
}
