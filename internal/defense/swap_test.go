package defense

import (
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

func newBackend(t *testing.T, cfg Config) *Backend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSwapSharedTable pins the code-less rollout primitive: re-pointing
// a shared-table Defender at a new sealed table must take effect on the
// very next allocation, bump the table generation (the epoch observers
// read), and survive a later Reset — the swapped table
// is the new configuration, not a transient.
func TestSwapSharedTable(t *testing.T) {
	oldSet := patches(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x42, Types: patch.TypeOverflow})
	newSet := patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x42, Types: patch.TypeOverflow},
		patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x99, Types: patch.TypeUseAfterFree},
	)
	oldTable, newTable := SealTable(oldSet), SealTable(newSet)

	d := newDefender(t, Config{SharedTable: oldTable})
	if d.SharedTable() != oldTable {
		t.Fatal("SharedTable does not return the configured table")
	}
	if d.ProbePatched(heapsim.FnMalloc, 0x99) {
		t.Fatal("new set's patch visible before the swap")
	}
	gen := d.TableGeneration()

	if err := d.SwapSharedTable(newTable); err != nil {
		t.Fatal(err)
	}
	if d.SharedTable() != newTable {
		t.Error("SharedTable still returns the old table after the swap")
	}
	if d.TableGeneration() <= gen {
		t.Errorf("swap did not advance the table generation: %d -> %d", gen, d.TableGeneration())
	}
	if !d.ProbePatched(heapsim.FnMalloc, 0x99) {
		t.Error("new set's patch not probed after the swap")
	}
	if !d.ProbePatched(heapsim.FnMalloc, 0x42) {
		t.Error("patch shared by both sets lost in the swap")
	}

	// A patched allocation now follows the new table.
	if _, err := d.Malloc(0x99, 64); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.PatchedAllocs != 1 {
		t.Errorf("allocation after swap not patched: %+v", st)
	}

	// Reset re-establishes the SWAPPED table (it is the configuration
	// now), with another generation bump.
	genSwapped := d.TableGeneration()
	d.space.Reset()
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	if d.TableGeneration() <= genSwapped {
		t.Error("Reset after swap did not advance the generation")
	}
	if d.SharedTable() != newTable {
		t.Error("Reset reverted the swap to the construction-time table")
	}
}

// TestSwapSharedTableContract: only shared-table Defenders can swap,
// and never to nil.
func TestSwapSharedTableContract(t *testing.T) {
	set := patches(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x1, Types: patch.TypeOverflow})

	private := newDefender(t, Config{Patches: set})
	if err := private.SwapSharedTable(SealTable(set)); err == nil {
		t.Error("SwapSharedTable on a private-table Defender succeeded")
	}

	shared := newDefender(t, Config{SharedTable: SealTable(set)})
	if err := shared.SwapSharedTable(nil); err == nil {
		t.Error("SwapSharedTable(nil) succeeded")
	}

	// The Backend passthrough follows the same contract.
	b := newBackend(t, Config{SharedTable: SealTable(set)})
	gen := b.PatchTableGeneration()
	if err := b.SwapSharedTable(SealTable(set)); err != nil {
		t.Fatal(err)
	}
	if b.PatchTableGeneration() <= gen {
		t.Error("Backend swap did not advance the generation")
	}
}
