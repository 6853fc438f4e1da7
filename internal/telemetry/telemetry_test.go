package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterAndHistogramNames(t *testing.T) {
	seen := map[string]bool{}
	for id := CounterID(0); id < NumCounters; id++ {
		name := id.String()
		if name == "" || strings.HasPrefix(name, "CounterID(") {
			t.Errorf("counter %d has no name", id)
		}
		if seen[name] {
			t.Errorf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	for id := HistogramID(0); id < NumHistograms; id++ {
		name := id.String()
		if name == "" || strings.HasPrefix(name, "HistogramID(") {
			t.Errorf("histogram %d has no name", id)
		}
	}
	if got := CounterID(200).String(); !strings.HasPrefix(got, "CounterID(") {
		t.Errorf("out-of-range counter name = %q", got)
	}
	if got := HistogramID(200).String(); !strings.HasPrefix(got, "HistogramID(") {
		t.Errorf("out-of-range histogram name = %q", got)
	}
	if got := EventKind(200).String(); !strings.HasPrefix(got, "EventKind(") {
		t.Errorf("out-of-range event kind name = %q", got)
	}
}

func TestPackSiteRoundTrip(t *testing.T) {
	cases := []struct {
		fn   uint8
		ccid uint64
	}{
		{1, 0}, {1, 0xDEADBEEF}, {5, 1<<56 - 1}, {0xFF, 0xFFFF_FFFF_FFFF_FFFF},
	}
	for _, c := range cases {
		site := PackSite(c.fn, c.ccid)
		if got := SiteFn(site); got != c.fn {
			t.Errorf("SiteFn(PackSite(%d, %#x)) = %d", c.fn, c.ccid, got)
		}
		if got, want := SiteCCID(site), c.ccid&(1<<56-1); got != want {
			t.Errorf("SiteCCID(PackSite(%d, %#x)) = %#x, want %#x", c.fn, c.ccid, got, want)
		}
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{1 << (NumBuckets - 2), NumBuckets - 1},
		{^uint64(0), NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Bucket bounds tile the value space: each bucket's hi+1 is the
	// next bucket's lo.
	for i := 1; i < NumBuckets-1; i++ {
		_, hi := BucketBounds(i)
		lo, _ := BucketBounds(i + 1)
		if hi+1 != lo {
			t.Errorf("bucket %d hi %d does not abut bucket %d lo %d", i, hi, i+1, lo)
		}
	}
}

func TestNilScopeIsNoOp(t *testing.T) {
	var s *Scope
	// None of these may panic or do anything.
	s.Inc(CtrAllocs)
	s.Add(CtrAllocs, 5)
	s.Observe(HistAllocSize, 64)
	s.Event(EvPatchHit, 1, 2, 3)
}

// TestAddFoldsCounts: Add sums into the scope's shard exactly as that
// many Incs would, and adding 0 leaves a counter out of the snapshot.
func TestAddFoldsCounts(t *testing.T) {
	c := New(Config{Shards: 2})
	s := c.Scope()
	s.Inc(CtrPatchHits)
	s.Add(CtrPatchHits, 4)
	s.Add(CtrZeroFills, 0)
	snap := c.Snapshot()
	if got := snap.Counter(CtrPatchHits); got != 5 {
		t.Errorf("patch_hits = %d, want 5", got)
	}
	if _, ok := snap.Counters[CtrZeroFills.String()]; ok {
		t.Errorf("adding 0 put zero_fills in the snapshot: %v", snap.Counters)
	}
}

func TestCountersAndSnapshot(t *testing.T) {
	c := New(Config{Shards: 4, RingSize: 64})
	s0, s1 := c.Scope(), c.Scope()
	if s0.tenant == s1.tenant {
		t.Fatal("scopes share a tenant id")
	}
	if s0.col != c {
		t.Fatal("scope collector mismatch")
	}
	for i := 0; i < 10; i++ {
		s0.Inc(CtrAllocs)
	}
	for i := 0; i < 7; i++ {
		s1.Inc(CtrAllocs)
	}
	s1.Inc(CtrFrees)
	s0.Observe(HistAllocSize, 24)
	s0.Observe(HistAllocSize, 24)
	s0.Observe(HistAllocSize, 4096)
	s0.Event(EvPatchHit, 0xCC1D, PackSite(1, 0xCC1D), 24)

	snap := c.Snapshot()
	if got := snap.Counter(CtrAllocs); got != 17 {
		t.Errorf("allocs = %d, want 17", got)
	}
	if got := snap.Counter(CtrFrees); got != 1 {
		t.Errorf("frees = %d, want 1", got)
	}
	if snap.Tenants != 2 {
		t.Errorf("tenants = %d, want 2", snap.Tenants)
	}
	if len(snap.PerShard) != 2 {
		t.Errorf("per-shard groups = %d, want 2", len(snap.PerShard))
	}
	var hist *HistogramSnapshot
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == HistAllocSize.String() {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil || hist.Count != 3 {
		t.Fatalf("alloc_size histogram missing or wrong count: %+v", hist)
	}
	if snap.EventsTotal != 1 || len(snap.Events) != 1 {
		t.Fatalf("events: total=%d retained=%d, want 1/1", snap.EventsTotal, len(snap.Events))
	}
	e := snap.Events[0]
	if e.Kind != EvPatchHit || e.CCID != 0xCC1D || SiteCCID(e.Site) != 0xCC1D || e.Arg != 24 {
		t.Errorf("event = %+v", e)
	}
	if e.Tenant != s0.tenant {
		t.Errorf("event tenant = %d, want %d", e.Tenant, s0.tenant)
	}
	if hits := snap.EventsOfKind(EvPatchHit); len(hits) != 1 {
		t.Errorf("EventsOfKind(patch-hit) = %d events", len(hits))
	}
	if none := snap.EventsOfKind(EvGuardFault); len(none) != 0 {
		t.Errorf("EventsOfKind(guard-fault) = %d events, want 0", len(none))
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	c := New(Config{Shards: 1, RingSize: 8})
	s := c.Scope()
	for i := 0; i < 20; i++ {
		s.Event(EvFault, 0, 0, uint64(i))
	}
	snap := c.Snapshot()
	if snap.EventsTotal != 20 {
		t.Fatalf("EventsTotal = %d, want 20", snap.EventsTotal)
	}
	if len(snap.Events) != 8 {
		t.Fatalf("retained %d events, want 8", len(snap.Events))
	}
	for i, e := range snap.Events {
		if want := uint64(12 + i); e.Seq != want || e.Arg != want {
			t.Errorf("event %d: seq=%d arg=%d, want %d", i, e.Seq, e.Arg, want)
		}
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	c := New(Config{Shards: 2, RingSize: 16})
	s := c.Scope()
	s.Inc(CtrAllocs)
	s.Inc(CtrPatchHits)
	s.Observe(HistLookupCycles, 6)
	s.Event(EvPatchHit, 1, PackSite(1, 1), 16)

	var a, b bytes.Buffer
	if err := c.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two snapshots of quiesced collector serialize differently")
	}
	var decoded Snapshot
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.Counter(CtrAllocs) != 1 {
		t.Error("decoded snapshot lost counters")
	}
}

func TestSnapshotRender(t *testing.T) {
	c := New(Config{Shards: 1, RingSize: 16})
	s := c.Scope()
	s.Inc(CtrAllocs)
	s.Observe(HistAllocSize, 100)
	s.Event(EvGuardFault, 0xAA, PackSite(1, 0xBB), 0x5000)
	out := c.Snapshot().Render()
	for _, want := range []string{"telemetry:", "allocs", "histogram alloc_size", "guard-fault"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	// Empty snapshot renders too.
	empty := New(Config{}).Snapshot().Render()
	if !strings.Contains(empty, "(none)") {
		t.Errorf("empty Render() = %q", empty)
	}
}

func TestScopeForSharesShard(t *testing.T) {
	c := New(Config{Shards: 2, RingSize: 16})
	// Tenants 0 and 2 map to shard 0; their counts must both land and
	// both survive in the merged total.
	a, b := c.ScopeFor(0), c.ScopeFor(2)
	a.Inc(CtrFrees)
	b.Inc(CtrFrees)
	if got := c.Snapshot().Counter(CtrFrees); got != 2 {
		t.Errorf("frees = %d, want 2", got)
	}
}
