package defense

import (
	"errors"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// telDefender builds a defender with a one-shard collector attached and
// returns both.
func telDefender(t *testing.T, cfg Config) (*Defender, *telemetry.Collector) {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(telemetry.Config{Shards: 1})
	cfg.Telemetry = col.Scope()
	d, err := New(space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, col
}

// TestTelemetryPatchHit pins the allocation-path instrumentation: a
// patched allocation must record the counter and an event whose packed
// site carries the {FUN, CCID} patch key.
func TestTelemetryPatchHit(t *testing.T) {
	const ccid = 0x42
	d, col := telDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeOverflow},
	)})
	if _, err := d.Malloc(ccid, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Malloc(0x99, 64); err != nil { // unpatched
		t.Fatal(err)
	}

	snap := col.Snapshot()
	if got := snap.Counter(telemetry.CtrPatchHits); got != 1 {
		t.Errorf("patch_hits = %d, want 1", got)
	}
	if got := snap.Counter(telemetry.CtrGuardPages); got != 1 {
		t.Errorf("guard_pages = %d, want 1", got)
	}
	if got := snap.Counter(telemetry.CtrAllocs); got != 2 {
		t.Errorf("allocs = %d, want 2 (internal heap inherits the scope)", got)
	}
	hits := snap.EventsOfKind(telemetry.EvPatchHit)
	if len(hits) != 1 {
		t.Fatalf("patch-hit events = %d, want 1", len(hits))
	}
	wantSite := telemetry.PackSite(uint8(heapsim.FnMalloc), ccid)
	if hits[0].Site != wantSite || hits[0].CCID != ccid || hits[0].Arg != 64 {
		t.Errorf("event = %+v, want site %#x ccid %#x size 64", hits[0], wantSite, ccid)
	}

	// Lookup cost lands in the histogram for every allocation.
	found := false
	for _, h := range snap.Histograms {
		if h.Name == telemetry.HistLookupCycles.String() && h.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("lookup_cycles histogram missing 2 observations: %+v", snap.Histograms)
	}
}

// TestTelemetryZeroFillAndDeferredFree covers the uninit-read and UAF
// treatment counters plus the double-free rejection event.
func TestTelemetryZeroFillAndDeferredFree(t *testing.T) {
	const uninitCCID, uafCCID = 0x7, 0x8
	d, col := telDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: uninitCCID, Types: patch.TypeUninitRead},
		patch.Patch{Fn: heapsim.FnMalloc, CCID: uafCCID, Types: patch.TypeUseAfterFree},
	)})
	if _, err := d.Malloc(uninitCCID, 32); err != nil {
		t.Fatal(err)
	}
	p, err := d.Malloc(uafCCID, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FreeCtx(p, 0xF1); err != nil {
		t.Fatal(err)
	}
	// Second free of the deferred block: rejected, attributed to the
	// freeing context.
	if err := d.FreeCtx(p, 0xF2); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free err = %v", err)
	}

	snap := col.Snapshot()
	if got := snap.Counter(telemetry.CtrZeroFills); got != 1 {
		t.Errorf("zero_fills = %d, want 1", got)
	}
	if got := snap.Counter(telemetry.CtrDeferredFrees); got != 1 {
		t.Errorf("deferred_frees = %d, want 1", got)
	}
	if got := snap.Counter(telemetry.CtrDoubleFrees); got != 1 {
		t.Errorf("double_frees = %d, want 1", got)
	}
	dfs := snap.EventsOfKind(telemetry.EvDoubleFree)
	if len(dfs) != 1 || dfs[0].CCID != 0xF2 || dfs[0].Site != p {
		t.Errorf("double-free events = %+v, want ccid 0xF2 addr %#x", dfs, p)
	}
}

// TestTelemetryQuarantineRefusal forces the deferred-free queue over
// quota and checks the eviction is traced as a quarantine refusal.
func TestTelemetryQuarantineRefusal(t *testing.T) {
	const ccid = 0x9
	d, col := telDefender(t, Config{
		QueueQuota: 64,
		Patches: patches(
			patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeUseAfterFree},
		),
	})
	var ptrs []uint64
	for i := 0; i < 3; i++ {
		p, err := d.Malloc(ccid, 48)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := d.FreeCtx(p, 0xAB); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snapshot()
	if got := snap.Counter(telemetry.CtrQuarantineRefusals); got == 0 {
		t.Fatal("no quarantine refusals despite quota pressure")
	}
	evs := snap.EventsOfKind(telemetry.EvQuarantineRefusal)
	if len(evs) == 0 {
		t.Fatal("no quarantine-refusal events retained")
	}
	if evs[0].Site != ptrs[0] || evs[0].Arg != 48 || evs[0].CCID != 0xAB {
		t.Errorf("refusal event = %+v, want oldest block %#x size 48 ccid 0xAB", evs[0], ptrs[0])
	}
}

// TestBackendGuardFaultTelemetry drives the interpreter-facing Backend
// API end to end: a guarded overflow access through every access path
// must classify as a guard fault (the page is ProtNone), while a wild
// unmapped access must not.
func TestBackendGuardFaultTelemetry(t *testing.T) {
	const ccid = 0x42
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(telemetry.Config{Shards: 1})
	b, err := NewBackend(space, Config{
		Telemetry: col.Scope(),
		Patches: patches(
			patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeOverflow},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Alloc(heapsim.FnMalloc, ccid, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	guard := mem.PageAlignUp(p + 64)
	span := guard - p + 1

	if _, err := b.Load(p, span, 0xA1); !mem.IsFault(err) {
		t.Fatalf("guarded overread err = %v", err)
	}
	var v prog.Value
	if err := b.LoadInto(&v, p, span, 0xA2); !mem.IsFault(err) {
		t.Fatalf("guarded LoadInto err = %v", err)
	}
	if err := b.Store(p, prog.Value{Bytes: make([]byte, span)}, 0xA3); !mem.IsFault(err) {
		t.Fatalf("guarded overwrite err = %v", err)
	}
	if err := b.Memset(p, 0xFF, span, 0xA4); !mem.IsFault(err) {
		t.Fatalf("guarded memset err = %v", err)
	}
	if err := b.Memcpy(guard, p, 8, 0xA5); !mem.IsFault(err) {
		t.Fatalf("guarded memcpy err = %v", err)
	}
	// In-bounds traffic is clean and uncounted.
	if err := b.Store(p, prog.Value{Bytes: make([]byte, 64)}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load(p, 64, 0); err != nil {
		t.Fatal(err)
	}
	// A wild fault far outside any mapping is not a guard fault.
	if _, err := b.Load(1<<40, 8, 0xA6); !mem.IsFault(err) {
		t.Fatal("wild load did not fault")
	}

	snap := col.Snapshot()
	if got := snap.Counter(telemetry.CtrGuardFaults); got != 5 {
		t.Errorf("guard_faults = %d, want 5", got)
	}
	evs := snap.EventsOfKind(telemetry.EvGuardFault)
	if len(evs) != 5 {
		t.Fatalf("guard-fault events = %d, want 5", len(evs))
	}
	wantCCIDs := []uint64{0xA1, 0xA2, 0xA3, 0xA4, 0xA5}
	for i, e := range evs {
		if e.CCID != wantCCIDs[i] {
			t.Errorf("event %d ccid = %#x, want %#x", i, e.CCID, wantCCIDs[i])
		}
		if e.Site < guard || e.Site >= guard+mem.PageSize {
			t.Errorf("event %d fault addr %#x outside guard page [%#x,%#x)", i, e.Site, guard, guard+mem.PageSize)
		}
	}
}

// TestBackendAPISurface covers the remaining HeapBackend adapter
// methods over a caller-supplied allocator.
func TestBackendAPISurface(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	under, err := heapsim.New(space)
	if err != nil {
		t.Fatal(err)
	}
	const ccid = 0x21
	b, err := NewBackendWithAllocator(space, under, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeUseAfterFree},
	)})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Defender().Underlying(); got != under {
		t.Error("Underlying() does not expose the supplied allocator")
	}
	if b.Defender().Heap() != nil {
		t.Error("Heap() non-nil for a custom allocator")
	}

	// Every allocation entry point of the adapter.
	for _, fn := range []heapsim.AllocFn{heapsim.FnMalloc, heapsim.FnCalloc, heapsim.FnMemalign, heapsim.FnAlignedAlloc} {
		p, err := b.Alloc(fn, 0x5, 2, 32, 64)
		if err != nil {
			t.Fatalf("Alloc(%v): %v", fn, err)
		}
		if err := b.Free(p, 0); err != nil {
			t.Fatalf("Free(%v): %v", fn, err)
		}
	}
	if _, err := b.Alloc(heapsim.FnRealloc, 0, 1, 8, 0); err == nil {
		t.Error("Alloc with realloc fn accepted")
	}

	// Realloc grows and preserves.
	p, err := b.Alloc(heapsim.FnMalloc, 0x5, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Store(p, prog.Value{Bytes: []byte("abcdefgh")}, 0); err != nil {
		t.Fatal(err)
	}
	np, err := b.Realloc(0x5, p, 64)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Load(np, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Bytes) != "abcdefgh" {
		t.Errorf("realloc lost data: %q", v.Bytes)
	}

	// Use-point hooks are no-ops online.
	b.CheckUse(prog.Value{}, prog.UseKind(0), 0)
	if b.ObservesUse() {
		t.Error("defended backend observes use points")
	}

	// Patch probing is side-effect-free and epoch-stable.
	gen := b.PatchTableGeneration()
	if !b.ProbePatched(heapsim.FnMalloc, ccid) {
		t.Error("ProbePatched misses installed patch")
	}
	if b.ProbePatched(heapsim.FnMalloc, 0x5) {
		t.Error("ProbePatched hits uninstalled key")
	}
	before := b.Defender().Stats()
	if b.PatchTableGeneration() != gen {
		t.Error("probe moved the table generation")
	}
	if after := b.Defender().Stats(); after.Lookups != before.Lookups {
		t.Error("ProbePatched charged a lookup")
	}

	if b.Cycles() == 0 {
		t.Error("no cycles accounted")
	}
	space.Reset()
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if b.PatchTableGeneration() == gen {
		t.Error("Reset did not advance the table generation")
	}
}

// TestDefenderTelemetryAccessors pins the disabled default: no scope,
// while patched allocations are still counted in Stats.
func TestDefenderTelemetryAccessors(t *testing.T) {
	d := newDefender(t, Config{Patches: patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x1, Types: patch.TypeOverflow},
	)})
	if d.Telemetry() != nil {
		t.Error("Telemetry() non-nil by default")
	}
	if _, err := d.Malloc(0x1, 16); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().PatchedAllocs; got != 1 {
		t.Errorf("PatchedAllocs = %d without telemetry, want 1", got)
	}
}

// TestSealedTableHitCounts exercises the shared table's tally plane.
func TestSealedTableHitCounts(t *testing.T) {
	set := patches(
		patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x11, Types: patch.TypeOverflow},
		patch.Patch{Fn: heapsim.FnCalloc, CCID: 0x22, Types: patch.TypeUseAfterFree},
	)
	st := SealTable(set)
	if st.Entries() != 2 {
		t.Fatalf("Entries = %d, want 2", st.Entries())
	}
	// Lookups before enabling leave no tally.
	if types, _ := st.Lookup(patch.Key{Fn: heapsim.FnMalloc, CCID: 0x11}); types == 0 {
		t.Fatal("sealed lookup missed installed key")
	}
	if st.HitCounts() != nil {
		t.Fatal("HitCounts non-nil before enabling")
	}
	st.EnableHitCounts()
	st.EnableHitCounts() // idempotent
	for i := 0; i < 3; i++ {
		st.Lookup(patch.Key{Fn: heapsim.FnMalloc, CCID: 0x11})
	}
	st.Lookup(patch.Key{Fn: heapsim.FnCalloc, CCID: 0x22})
	st.Lookup(patch.Key{Fn: heapsim.FnMalloc, CCID: 0x77}) // miss: untallied
	hc := st.HitCounts()
	if hc[patch.Key{Fn: heapsim.FnMalloc, CCID: 0x11}] != 3 {
		t.Errorf("hit counts = %v, want 3 for malloc@0x11", hc)
	}
	if hc[patch.Key{Fn: heapsim.FnCalloc, CCID: 0x22}] != 1 {
		t.Errorf("hit counts = %v, want 1 for calloc@0x22", hc)
	}
	if len(hc) != 2 {
		t.Errorf("hit counts carry %d keys, want 2: %v", len(hc), hc)
	}
}

// TestDefendedHotPathZeroAlloc pins the telemetry overhead contract on
// the defense layer: with no collector attached, the malloc/free cycle
// and the defended load path perform zero Go allocations per operation
// (the nil-scope checks must not box, escape, or allocate).
func TestDefendedHotPathZeroAlloc(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(space, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		p, err := b.Alloc(heapsim.FnMalloc, 0x3, 1, 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Free(p, 0x3); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("defended malloc/free with telemetry disabled: %.1f allocs/op, want 0", avg)
	}

	p, err := b.Alloc(heapsim.FnMalloc, 0x3, 1, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v prog.Value
	if avg := testing.AllocsPerRun(200, func() {
		if err := b.LoadInto(&v, p, 64, 0x3); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("defended LoadInto with telemetry disabled: %.1f allocs/op, want 0", avg)
	}
}

// TestReallocZeroAlloc pins each family's moving realloc: a warm
// malloc → realloc (growing past the block, so the payload is copied to
// a new buffer) → free cycle performs no Go allocation, because the
// copy runs inside the space instead of through a read buffer.
func TestReallocZeroAlloc(t *testing.T) {
	for _, fam := range AllFamilies() {
		t.Run(fam.String(), func(t *testing.T) {
			d := newDefender(t, Config{Family: fam})
			if avg := testing.AllocsPerRun(100, func() {
				p, err := d.Malloc(0x5, 64)
				if err != nil {
					t.Fatal(err)
				}
				q, err := d.Realloc(0x5, p, 4096)
				if err != nil {
					t.Fatal(err)
				}
				if q == p {
					t.Fatal("realloc did not move the block")
				}
				if err := d.Free(q); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("%s moving realloc cycle: %.1f allocs/run, want 0", fam, avg)
			}
		})
	}
}
