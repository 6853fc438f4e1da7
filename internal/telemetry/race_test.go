package telemetry

import (
	"sync"
	"testing"
)

// TestConcurrentCountersNoLostIncrements hammers shared scopes from
// many goroutines while a reader snapshots continuously, then checks
// the final totals are exact. Run under -race this also proves the
// shard/ring protocols are data-race free.
func TestConcurrentCountersNoLostIncrements(t *testing.T) {
	const (
		writers = 8
		perG    = 5000
	)
	c := New(Config{Shards: 4, RingSize: 256})
	scopes := make([]*Scope, writers)
	for i := range scopes {
		scopes[i] = c.Scope()
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := c.Snapshot()
				// Mid-run totals must never exceed the final total.
				if got := snap.Counter(CtrAllocs); got > writers*perG {
					t.Errorf("snapshot over-counted: %d", got)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(s *Scope, g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Inc(CtrAllocs)
				s.Inc(CtrPatchHits)
				s.Observe(HistAllocSize, uint64(i%512))
				if i%16 == 0 {
					s.Event(EvPatchHit, uint64(i), PackSite(1, uint64(i)), uint64(g))
				}
			}
		}(scopes[g], g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	snap := c.Snapshot()
	if got, want := snap.Counter(CtrAllocs), uint64(writers*perG); got != want {
		t.Errorf("allocs = %d, want %d (lost increments)", got, want)
	}
	if got, want := snap.Counter(CtrPatchHits), uint64(writers*perG); got != want {
		t.Errorf("patch_hits = %d, want %d (lost increments)", got, want)
	}
	var histTotal uint64
	for _, h := range snap.Histograms {
		if h.Name == HistAllocSize.String() {
			histTotal = h.Count
		}
	}
	if want := uint64(writers * perG); histTotal != want {
		t.Errorf("histogram count = %d, want %d", histTotal, want)
	}
	wantEvents := uint64(writers * ((perG + 15) / 16))
	if snap.EventsTotal != wantEvents {
		t.Errorf("events total = %d, want %d", snap.EventsTotal, wantEvents)
	}
	if len(snap.Events) != 256 {
		t.Errorf("retained events = %d, want full ring 256", len(snap.Events))
	}
	// With quiesced writers every retained event must be consistent:
	// sequence numbers strictly increasing, payload fields coherent.
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].Seq <= snap.Events[i-1].Seq {
			t.Fatalf("non-monotonic seqs after quiesce: %d then %d",
				snap.Events[i-1].Seq, snap.Events[i].Seq)
		}
	}
	for _, e := range snap.Events {
		if e.Kind != EvPatchHit || SiteCCID(e.Site) != e.CCID || e.Arg >= writers {
			t.Fatalf("torn event survived snapshot: %+v", e)
		}
	}
}

// TestConcurrentScopeIssue checks Scope() itself is safe to call
// concurrently and hands out distinct tenants.
func TestConcurrentScopeIssue(t *testing.T) {
	c := New(Config{Shards: 2, RingSize: 16})
	const n = 32
	tenants := make([]uint32, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := c.Scope()
			s.Inc(CtrRequests)
			tenants[i] = s.tenant
		}(i)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for _, tn := range tenants {
		if seen[tn] {
			t.Fatalf("tenant %d issued twice", tn)
		}
		seen[tn] = true
	}
	if got := c.Snapshot().Counter(CtrRequests); got != n {
		t.Errorf("requests = %d, want %d", got, n)
	}
	if got := c.Snapshot().Tenants; got != n {
		t.Errorf("tenants = %d, want %d", got, n)
	}
}
