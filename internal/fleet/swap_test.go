package fleet

import (
	"sync"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

func overflowPatch(ccid uint64) *patch.Set {
	set := patch.NewSet()
	set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeOverflow})
	return set
}

// TestSwapTable pins the fleet-level rollout seam: SwapTable installs
// a new sealed table atomically, a live context is re-pointed by its
// next SyncTable (with a table-generation bump), contexts built after
// the swap start on the new table, and a context mid-request keeps its
// old — still immutable, still valid — table until it syncs.
func TestSwapTable(t *testing.T) {
	f := New(Config{Patches: overflowPatch(0x1)})
	oldTable := f.Table()
	if oldTable == nil {
		t.Fatal("fleet has no table")
	}

	held, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	genHeld := held.backend.Defender().TableGeneration()

	newTable, err := f.SwapTable(overflowPatch(0x2))
	if err != nil {
		t.Fatal(err)
	}
	if f.Table() != newTable || newTable == oldTable {
		t.Fatal("SwapTable did not install a fresh table")
	}
	if st := f.Stats(); st.TableSwaps != 1 || newTable.Epoch() != 1 || oldTable.Epoch() != 0 {
		t.Errorf("TableSwaps=%d, epochs old %d new %d; want 1, 0, 1", st.TableSwaps, oldTable.Epoch(), newTable.Epoch())
	}

	// The held context is untouched: swapping under a live worker
	// would violate the Defender ownership contract.
	if held.backend.Defender().SharedTable() != oldTable {
		t.Error("live context re-pointed mid-flight")
	}
	if !held.backend.Defender().ProbePatched(heapsim.FnMalloc, 0x1) {
		t.Error("old table no longer serves its in-flight context")
	}

	// A context built after the swap starts on the new table.
	fresh, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.backend.Defender().SharedTable() != newTable {
		t.Error("Acquire after the swap built a context on the old table")
	}

	// The held context picks up the new table at its next sync.
	if cur, err := held.SyncTable(f); err != nil || cur != newTable {
		t.Fatalf("SyncTable after a swap = %p, %v; want the new table %p", cur, err, newTable)
	}
	if held.backend.Defender().SharedTable() != newTable {
		t.Error("SyncTable did not re-point the context")
	}
	if held.backend.Defender().TableGeneration() <= genHeld {
		t.Error("re-pointing did not advance the table generation")
	}
	if !held.backend.Defender().ProbePatched(heapsim.FnMalloc, 0x2) {
		t.Error("new patch not probed after re-pointing")
	}
	if held.backend.Defender().ProbePatched(heapsim.FnMalloc, 0x1) {
		t.Error("old patch still probed after re-pointing")
	}

	// Re-syncing with no intervening swap is a no-op.
	gen := held.backend.Defender().TableGeneration()
	if cur, err := held.SyncTable(f); err != nil || cur != newTable {
		t.Errorf("SyncTable with no swap = %p, %v; want the same table %p", cur, err, newTable)
	}
	if held.backend.Defender().TableGeneration() != gen {
		t.Error("SyncTable bumped the generation without a table change")
	}
}

// TestSyncTableError: a context whose Defender cannot take the fleet's
// table (one built without a shared table) makes SyncTable return the
// swap error instead of panicking.
func TestSyncTableError(t *testing.T) {
	f := New(Config{Patches: overflowPatch(0x1)})
	c, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	private, err := defense.NewBackend(c.space, defense.Config{Patches: patch.NewSet()})
	if err != nil {
		t.Fatal(err)
	}
	c.backend = private

	cur, err := c.SyncTable(f)
	if err == nil || cur != nil {
		t.Fatalf("SyncTable on a private-table Defender = %p, %v; want its own (nil) shared table and an error", cur, err)
	}
}

// TestSwapTableContract: every fleet, the zero Config's too, holds a
// table and can swap it, and a swap with hit counting enabled preserves
// the telemetry wiring (the new table must be sealed with counters
// BEFORE it is shared).
func TestSwapTableContract(t *testing.T) {
	zero := New(Config{})
	if zero.Table() == nil {
		t.Fatal("zero-Config fleet has no table")
	}
	if nt, err := zero.SwapTable(overflowPatch(0x1)); err != nil || nt != zero.Table() {
		t.Errorf("SwapTable on a zero-Config fleet = %p, %v; want the installed table", nt, err)
	}

	col := telemetry.New(telemetry.Config{})
	f := New(Config{Patches: overflowPatch(0x1), Telemetry: col})
	nt, err := f.SwapTable(overflowPatch(0x2))
	if err != nil {
		t.Fatal(err)
	}
	nt.Lookup(patch.Key{Fn: heapsim.FnMalloc, CCID: 0x2})
	hits := f.Stats().PatchHits
	key := patch.Key{Fn: heapsim.FnMalloc, CCID: 0x2}
	if hits[key] != 1 {
		t.Errorf("swapped table does not count hits: %+v", hits)
	}
}

// TestFinishRequest: the per-request accounting seam — counters,
// defense-stat merge, recycle.
func TestFinishRequest(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	f := New(Config{Patches: patches})

	c, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	it, err := prog.New(p, prog.Config{Backend: c.Backend(), Coder: coder})
	if err != nil {
		t.Fatal(err)
	}
	res, err := it.Run([]byte{0xEE})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FinishRequest(c, res.Crashed()); err != nil {
		t.Fatal(err)
	}

	st := f.Stats()
	if st.Requests != 1 {
		t.Errorf("Requests=%d, want 1", st.Requests)
	}
	if st.Crashes != uint64(boolToU64(res.Crashed())) {
		t.Errorf("Crashes=%d, crashed=%v", st.Crashes, res.Crashed())
	}
	if st.Resets != 1 {
		t.Errorf("Resets=%d, want 1", st.Resets)
	}
	if st.Defense.PatchedAllocs != 1 {
		t.Errorf("merged PatchedAllocs=%d, want 1", st.Defense.PatchedAllocs)
	}
}

func boolToU64(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSwapTableEpochsUnique: concurrent swaps each publish a distinct
// epoch, and the current table's epoch is the number of swaps — the
// compare-and-swap re-stamps a table whose predecessor changed under
// it, so no two tables share an epoch and none goes backwards.
func TestSwapTableEpochsUnique(t *testing.T) {
	const swappers, each = 4, 2000
	f := New(Config{})
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < swappers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				nt, _ := f.SwapTable(overflowPatch(uint64(i)))
				mu.Lock()
				if seen[nt.Epoch()] {
					t.Errorf("epoch %d published twice", nt.Epoch())
				}
				seen[nt.Epoch()] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := f.Stats().TableSwaps; got != swappers*each {
		t.Errorf("TableSwaps=%d after %d swaps", got, swappers*each)
	}
}
