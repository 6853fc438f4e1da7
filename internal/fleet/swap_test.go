package fleet

import (
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
// a new sealed table atomically, pooled contexts are re-pointed at
// checkout (with the generation bump that invalidates engine verdict
// caches), and contexts checked out before the swap keep their old —
// still immutable, still valid — table until they come back through
// Acquire.
func TestSwapTable(t *testing.T) {
	f := New(Config{Defended: true, Patches: overflowPatch(0x1)})
	oldTable := f.Table()
	if oldTable == nil {
		t.Fatal("defended fleet has no table")
	}

	// One context checked out across the swap, one pooled through it.
	held, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	genPooled := pooled.Defender().TableGeneration()
	f.Release(pooled)

	newTable, err := f.SwapTable(overflowPatch(0x2))
	if err != nil {
		t.Fatal(err)
	}
	if f.Table() != newTable || newTable == oldTable {
		t.Fatal("SwapTable did not install a fresh table")
	}
	if st := f.Stats(); st.TableSwaps != 1 {
		t.Errorf("TableSwaps=%d, want 1", st.TableSwaps)
	}

	// The held context is untouched: swapping under a checked-out
	// worker would violate the Defender ownership contract.
	if held.Defender().SharedTable() != oldTable {
		t.Error("checked-out context re-pointed mid-flight")
	}
	if !held.Defender().ProbePatched(heapsim.FnMalloc, 0x1) {
		t.Error("old table no longer serves its in-flight context")
	}

	// The pooled context picks up the new table at its next checkout.
	// (Under -race sync.Pool may drop the Put; a fresh build points at
	// the new table too, so the table assertion holds either way — the
	// generation-bump check needs the recycled identity.)
	c, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if c.Defender().SharedTable() != newTable {
		t.Error("Acquire did not re-point the pooled context")
	}
	if c == pooled && c.Defender().TableGeneration() <= genPooled {
		t.Error("re-pointing did not advance the table generation")
	}
	if !c.Defender().ProbePatched(heapsim.FnMalloc, 0x2) {
		t.Error("new patch not probed after re-pointing")
	}
	if c.Defender().ProbePatched(heapsim.FnMalloc, 0x1) {
		t.Error("old patch still probed after re-pointing")
	}

	// Re-acquiring with no intervening swap is a no-op.
	f.Release(c)
	gen := c.Defender().TableGeneration()
	c2, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c && c2.Defender().TableGeneration() != gen {
		t.Error("Acquire bumped the generation without a table change")
	}
}

// TestSyncTableError: a context whose Defender cannot take the fleet's
// table (one built without a shared table) makes SyncTable return the
// swap error instead of panicking, and Acquire hands that error back
// instead of the context.
func TestSyncTableError(t *testing.T) {
	f := New(Config{Defended: true, Patches: overflowPatch(0x1)})
	broken := func() *Context {
		c, err := f.newContext()
		if err != nil {
			t.Fatal(err)
		}
		private, err := defense.NewBackend(c.space, defense.Config{Patches: patch.NewSet()})
		if err != nil {
			t.Fatal(err)
		}
		c.defender = private.Defender()
		return c
	}

	swapped, err := broken().SyncTable(f)
	if err == nil || swapped {
		t.Fatalf("SyncTable on a private-table Defender = %v, %v; want false and an error", swapped, err)
	}
	want := err.Error()

	// sync.Pool may drop a Put (the race detector does so at random),
	// so keep handing a broken context back until Acquire draws one.
	for i := 0; i < 50; i++ {
		f.Release(broken())
		c, err := f.Acquire()
		if err == nil {
			continue
		}
		if c != nil || err.Error() != want {
			t.Fatalf("Acquire = %p, %v; want nil and %q", c, err, want)
		}
		return
	}
	t.Fatal("Acquire never returned the broken context's SyncTable error")
}

// TestSwapTableContract: only defended fleets can swap, and a swap
// with hit counting enabled preserves the telemetry wiring (the new
// table must be sealed with counters BEFORE it is shared).
func TestSwapTableContract(t *testing.T) {
	native := New(Config{})
	if _, err := native.SwapTable(overflowPatch(0x1)); err == nil {
		t.Error("SwapTable on a native fleet succeeded")
	}

	col := telemetry.New(telemetry.Config{})
	f := New(Config{Defended: true, Patches: overflowPatch(0x1), Telemetry: col})
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

// TestDrainPool: draining discards pooled contexts so the next Acquire
// builds from scratch.
func TestDrainPool(t *testing.T) {
	f := New(Config{Defended: true, Patches: overflowPatch(0x1)})
	a, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	f.Release(a)
	f.Release(b)

	if n := f.DrainPool(); n > 2 {
		t.Fatalf("DrainPool dropped %d contexts, want <= 2", n)
	} // (< 2 is possible under -race: sync.Pool drops Puts there)
	if n := f.DrainPool(); n != 0 {
		t.Fatalf("second DrainPool dropped %d contexts, want 0", n)
	}

	built := f.Stats().ContextsBuilt
	c, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c == b {
		t.Error("Acquire returned a drained context")
	}
	if got := f.Stats().ContextsBuilt; got != built+1 {
		t.Errorf("ContextsBuilt=%d after drain+Acquire, want %d", got, built+1)
	}
}

// TestFinishRequest: the per-request accounting seam — counters,
// defense-stat merge, recycle.
func TestFinishRequest(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	f := New(Config{Defended: true, Patches: patches})

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
	f.Release(c)

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
