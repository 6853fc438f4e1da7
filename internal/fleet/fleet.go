// Package fleet is the parallel serving runtime: M independent
// defended tenants — one mem.Space, one allocator, one defense layer
// each — executing across real goroutines, all probing ONE immutable
// sealed patch table. This is the paper's deployment shape scaled out:
// a fleet of defended server processes on a multi-core host share the
// read-only patch configuration (one mapping, many readers) while
// every mutable structure (heap arena, metadata words, deferred-free
// queue, statistics) stays strictly process-private. Here goroutines
// stand in for processes, the SealedTable for the shared read-only
// mapping, and Go immutability for page protection.
//
// Worker contexts are expensive to build (a space reservation, an
// allocator, a defense layer) and cheap to recycle (Reset costs are
// proportional to pages touched, not address-space size), so each
// worker Acquires one context for its lifetime and recycles it after
// every request: steady-state request handling builds nothing and the
// per-request setup cost is a Reset, not a construction.
//
// Concurrency model — the invariant everything here rests on:
//
//   - shared and immutable: the SealedTable, the Program, the Coder.
//   - worker-private and mutable: everything else, owned by exactly
//     one goroutine (the Backend contract in package defense).
//   - fleet-level statistics: request records are summed under a
//     mutex; the table epoch lives in the table.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/telemetry"
)

// Config configures a Fleet. Every worker runs the full defense
// (defense.ModeFull) over the boundary-tag heap.
type Config struct {
	// Workers is kept so existing configurations still compile.
	//
	// Deprecated: no effect. The front-end sizes its own worker pool.
	Workers int
	// Defended is kept so existing configurations still compile.
	//
	// Deprecated: no effect. Every fleet worker is defended.
	Defended bool
	// Patches is sealed once at New into the table every worker
	// shares.
	Patches *patch.Set
	// Space configures each worker's private address space.
	Space mem.Config
	// Family selects each worker's policy family (default
	// defense.FamilyHT). Non-HT families keep the shared-table seams —
	// rollouts still bump every worker's generation — but never consult
	// the table's contents.
	Family defense.Family
	// Telemetry, when non-nil, gives each worker context its own scope
	// (so the per-shard breakdown is per tenant), which Stats snapshots,
	// and turns on per-patch hit counting on the shared sealed table.
	// The fleet attaches no quantum hook.
	Telemetry *telemetry.Collector
}

// Stats is a snapshot of fleet-wide activity. Defense sums every
// request's defense counters; its QueueBytes gauge is always zero, as
// recycling empties each queue.
type Stats struct {
	// Requests is the number of requests served.
	Requests uint64
	// Crashes is the number of requests that ended in a fault.
	Crashes uint64
	// ContextsBuilt counts worker-context constructions, one per
	// Acquire; the recycling win is Requests >> ContextsBuilt.
	ContextsBuilt uint64
	// Resets counts context recycles.
	Resets uint64
	// TableSwaps counts SwapTable installs (code-less patch rollouts):
	// the current table's epoch.
	TableSwaps uint64
	// Defense is the sum of all workers' defense counters.
	Defense defense.Stats
	// Telemetry is the merged telemetry snapshot, nil when the fleet
	// runs without a collector.
	Telemetry *telemetry.Snapshot
	// PatchHits is the fleet-wide per-patch lookup hit tally from the
	// shared sealed table; nil unless telemetry is enabled.
	PatchHits map[patch.Key]uint64
}

// Fleet is the parallel serving runtime. Construct with New; a Fleet
// is safe for concurrent use (any number of goroutines may Acquire and
// serve on contexts — workers never share contexts).
type Fleet struct {
	cfg Config

	// table is the CURRENT shared sealed table, replaced under live
	// traffic by SwapTable; in-flight workers keep probing the table
	// they synced, which stays valid forever (immutable).
	table atomic.Pointer[defense.SealedTable]

	contextsBuilt atomic.Uint64
	resets        atomic.Uint64

	// merged sums the Requests, Crashes and Defense of every finished
	// request's record, guarded by mu.
	mu     sync.Mutex
	merged Stats
}

// New builds a fleet, sealing the patch set into the shared table
// exactly once.
func New(cfg Config) *Fleet {
	f := &Fleet{cfg: cfg}
	f.table.Store(f.seal(cfg.Patches))
	return f
}

// seal builds a shareable sealed table from a patch set, with hit
// counting enabled before anything can probe it when the fleet is
// telemetered.
func (f *Fleet) seal(patches *patch.Set) *defense.SealedTable {
	t := defense.SealTable(patches)
	if f.cfg.Telemetry != nil {
		// Must happen before any worker shares the table.
		t.EnableHitCounts()
	}
	return t
}

// Table returns the CURRENT shared sealed patch table.
func (f *Fleet) Table() *defense.SealedTable { return f.table.Load() }

// SwapTable seals a new patch set and installs it as the fleet's
// current table — the code-less patch rollout, performed under live
// traffic with no restart:
//
//   - the new table is built and (if telemetered) hit-enabled BEFORE
//     it becomes visible, so no worker ever sees a half-built table;
//   - the install is one compare-and-swap after stamping the table as
//     its predecessor's successor, so epochs never go backwards:
//     contexts acquired after it are built on the new table, and a
//     live context picks it up at its next Context.SyncTable, while
//     requests already in flight keep serving on the old table, which
//     is immutable and therefore valid forever;
//   - nothing is ever mutated in place, so there is no window where a
//     request can fail because of the swap.
//
// The returned table is the installed one; the error is always nil and
// is kept for callers that install tables through a fallible seam.
func (f *Fleet) SwapTable(patches *patch.Set) (*defense.SealedTable, error) {
	t := f.seal(patches)
	for {
		old := f.table.Load()
		t.Succeed(old)
		if f.table.CompareAndSwap(old, t) {
			return t, nil
		}
	}
}

// Stats returns a snapshot of fleet statistics; it is not one atomic
// cut (call once every context is released for exact totals).
func (f *Fleet) Stats() Stats {
	var snap *telemetry.Snapshot
	var hits map[patch.Key]uint64
	table := f.table.Load()
	if f.cfg.Telemetry != nil {
		snap = f.cfg.Telemetry.Snapshot()
		// Swapped-out tables keep their tallies; the snapshot reports
		// the CURRENT table's hits (post-rollout traffic).
		hits = table.HitCounts()
	}
	f.mu.Lock()
	st := f.merged
	f.mu.Unlock()
	st.Telemetry, st.PatchHits = snap, hits
	st.ContextsBuilt, st.Resets = f.contextsBuilt.Load(), f.resets.Load()
	st.TableSwaps = table.Epoch()
	return st
}

// FinishRequest accounts one request served on c — one record, summed
// into the fleet totals and folded into c's scope; its defense counts
// are c's since the last Reset — and recycles c. A request that faults
// is a normal outcome: its context recycles and serving continues
// (crash isolation: one tenant's SIGSEGV never touches another's heap).
func (f *Fleet) FinishRequest(c *Context, crashed bool) error {
	r := Stats{Requests: 1, Defense: c.backend.Defender().Stats()}
	if crashed {
		r.Crashes = 1
	}
	f.mu.Lock()
	f.merged.Requests += r.Requests
	f.merged.Crashes += r.Crashes
	f.merged.Defense.Add(r.Defense)
	f.mu.Unlock()
	c.tel.Add(telemetry.CtrRequests, r.Requests)
	c.tel.Add(telemetry.CtrCrashes, r.Crashes)
	r.Defense.AddTo(c.tel)
	if err := c.Reset(); err != nil {
		return fmt.Errorf("fleet: recycling context: %w", err)
	}
	f.resets.Add(1)
	return nil
}
