package telemetry

import "testing"

// TestCollectorReset pins the pooled-tenant recycling contract: Reset
// clears every counter, histogram, and the event ring in place, but
// preserves the issued-scope count — so a snapshot from a recycled
// collector (tenant slots reused across runs) is indistinguishable
// from one taken off a freshly built collector with the same number of
// Scope() calls, and retained scopes stay valid.
func TestCollectorReset(t *testing.T) {
	c := New(Config{Shards: 2, RingSize: 8})
	s0, s1 := c.Scope(), c.Scope()
	s0.Inc(CtrAllocs)
	s1.Inc(CtrFrees)
	s0.Observe(HistAllocSize, 128)
	s0.Event(EvPatchHit, 0x1, PackSite(1, 0x1), 9)
	s1.Event(EvGuardFault, 0x2, PackSite(2, 0x2), 3)

	c.Reset()

	snap := c.Snapshot()
	if snap.Tenants != 2 {
		t.Errorf("tenants = %d after reset, want 2 (scopes are preserved)", snap.Tenants)
	}
	if got := snap.Counter(CtrAllocs); got != 0 {
		t.Errorf("allocs = %d after reset", got)
	}
	if got := snap.Counter(CtrFrees); got != 0 {
		t.Errorf("frees = %d after reset", got)
	}
	for _, h := range snap.Histograms {
		if h.Count != 0 {
			t.Errorf("histogram %s count = %d after reset", h.Name, h.Count)
		}
	}
	if snap.EventsTotal != 0 || len(snap.Events) != 0 {
		t.Errorf("events after reset: total=%d retained=%d", snap.EventsTotal, len(snap.Events))
	}

	// Retained scopes keep working, and the ring restarts from
	// sequence zero like a fresh collector's.
	s0.Inc(CtrAllocs)
	s1.Event(EvPatchHit, 0x3, PackSite(3, 0x3), 1)
	snap = c.Snapshot()
	if got := snap.Counter(CtrAllocs); got != 1 {
		t.Errorf("allocs = %d after post-reset use, want 1", got)
	}
	if len(snap.Events) != 1 || snap.Events[0].Seq != 0 {
		t.Fatalf("post-reset events = %+v, want one event at seq 0", snap.Events)
	}
	if snap.Events[0].Tenant != s1.tenant {
		t.Errorf("post-reset event tenant = %d, want %d", snap.Events[0].Tenant, s1.tenant)
	}
}

// TestCollectorResetRingWrapped pins the ring's in-place reset after a
// wrap: stale slots from before the reset must not resurface.
func TestCollectorResetRingWrapped(t *testing.T) {
	c := New(Config{Shards: 1, RingSize: 4})
	s := c.Scope()
	for i := 0; i < 9; i++ { // wraps the 4-slot ring twice
		s.Event(EvPatchHit, uint64(i), 0, 0)
	}
	c.Reset()
	s.Event(EvGuardFault, 0xFF, 0, 0)
	snap := c.Snapshot()
	if snap.EventsTotal != 1 || len(snap.Events) != 1 {
		t.Fatalf("events after reset+push: total=%d retained=%d", snap.EventsTotal, len(snap.Events))
	}
	if snap.Events[0].Kind != EvGuardFault || snap.Events[0].CCID != 0xFF {
		t.Errorf("stale slot resurfaced: %+v", snap.Events[0])
	}
}
