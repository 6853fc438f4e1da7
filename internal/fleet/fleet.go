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
// proportional to pages touched, not address-space size), so the fleet
// pools them through sync.Pool: steady-state request handling builds
// nothing and the per-request setup cost is a Reset, not a
// construction.
//
// Concurrency model — the invariant everything here rests on:
//
//   - shared and immutable: the SealedTable, the Program, the Coder.
//   - worker-private and mutable: everything else, owned by exactly
//     one goroutine (the Backend contract in package defense).
//   - fleet-level statistics: merged with atomics only.
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
	// Telemetry, when non-nil, collects per-worker counters, histograms
	// (allocation sizes, patch-lookup cost), and defense trace events.
	// The fleet attaches no quantum hook, so it records no per-quantum
	// cycle histogram. Each worker context binds its own scope, so
	// the collector's per-shard breakdown is the per-tenant aggregation;
	// Stats surfaces the merged snapshot. Enabling telemetry also
	// turns on per-patch hit counting on the shared sealed table.
	Telemetry *telemetry.Collector
}

// Stats is a snapshot of fleet-wide activity: request accounting plus
// the sum of every worker's defense counters, merged atomically as
// each request completes. Defense.QueueBytes is a gauge, not a
// counter, and worker recycling empties the queue — so it is omitted
// from the merged Defense stats (always zero there).
type Stats struct {
	// Requests is the number of requests served.
	Requests uint64
	// Crashes is the number of requests that ended in a fault.
	Crashes uint64
	// ContextsBuilt counts full worker-context constructions (pool
	// misses); the pooling win is Requests >> ContextsBuilt.
	ContextsBuilt uint64
	// Resets counts context recycles.
	Resets uint64
	// TableSwaps counts SwapTable installs (code-less patch rollouts).
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
// is safe for concurrent use (any number of goroutines may Acquire,
// serve on, and Release contexts — workers never share contexts).
type Fleet struct {
	cfg Config

	// table is the CURRENT shared sealed table. It is an atomic
	// pointer because SwapTable replaces it under live traffic: readers
	// (Acquire's table sync, Stats) load the pointer, in-flight workers
	// keep probing whichever table their Defender was pointed at when
	// they acquired their context — the old table stays valid forever
	// (immutable), it just stops being handed out.
	table atomic.Pointer[defense.SealedTable]

	ctxPool sync.Pool // *Context

	requests      atomic.Uint64
	crashes       atomic.Uint64
	contextsBuilt atomic.Uint64
	resets        atomic.Uint64
	swaps         atomic.Uint64

	// Merged defense counters (see Stats.Defense).
	dAllocs        atomic.Uint64
	dLookups       atomic.Uint64
	dLookupFaults  atomic.Uint64
	dPatchedAllocs atomic.Uint64
	dGuardPages    atomic.Uint64
	dZeroFills     atomic.Uint64
	dDeferredFrees atomic.Uint64
	dEvictions     atomic.Uint64
	dFrees         atomic.Uint64
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
//   - the install is one atomic pointer store: contexts acquired after
//     it observe the new table (Acquire re-points pooled Defenders, so
//     their next allocation looks it up), while contexts already in
//     flight keep serving on the old table, which is immutable and
//     therefore valid forever;
//   - nothing is ever mutated in place, so there is no window where a
//     request can fail because of the swap.
//
// The returned table is the installed one; the error is always nil and
// is kept for callers that install tables through a fallible seam.
func (f *Fleet) SwapTable(patches *patch.Set) (*defense.SealedTable, error) {
	t := f.seal(patches)
	f.table.Store(t)
	f.swaps.Add(1)
	return t, nil
}

// Stats returns a consistent-enough snapshot of fleet statistics:
// each counter is read atomically; the set is not a single atomic
// snapshot (call once every context is released for exact totals).
func (f *Fleet) Stats() Stats {
	var snap *telemetry.Snapshot
	var hits map[patch.Key]uint64
	if f.cfg.Telemetry != nil {
		snap = f.cfg.Telemetry.Snapshot()
		// Swapped-out tables keep their tallies; the snapshot reports
		// the CURRENT table's hits (post-rollout traffic).
		hits = f.table.Load().HitCounts()
	}
	return Stats{
		Telemetry:     snap,
		PatchHits:     hits,
		Requests:      f.requests.Load(),
		Crashes:       f.crashes.Load(),
		ContextsBuilt: f.contextsBuilt.Load(),
		Resets:        f.resets.Load(),
		TableSwaps:    f.swaps.Load(),
		Defense: defense.Stats{
			Allocs:         f.dAllocs.Load(),
			Lookups:        f.dLookups.Load(),
			LookupFaults:   f.dLookupFaults.Load(),
			PatchedAllocs:  f.dPatchedAllocs.Load(),
			GuardPages:     f.dGuardPages.Load(),
			ZeroFills:      f.dZeroFills.Load(),
			DeferredFrees:  f.dDeferredFrees.Load(),
			QueueEvictions: f.dEvictions.Load(),
			Frees:          f.dFrees.Load(),
		},
	}
}

// merge folds one request's defense-counter delta into the fleet
// totals. The delta is simply the worker's stats since its last Reset
// (Reset zeroes them), so no subtraction bookkeeping is needed.
func (f *Fleet) merge(s defense.Stats) {
	f.dAllocs.Add(s.Allocs)
	f.dLookups.Add(s.Lookups)
	f.dLookupFaults.Add(s.LookupFaults)
	f.dPatchedAllocs.Add(s.PatchedAllocs)
	f.dGuardPages.Add(s.GuardPages)
	f.dZeroFills.Add(s.ZeroFills)
	f.dDeferredFrees.Add(s.DeferredFrees)
	f.dEvictions.Add(s.QueueEvictions)
	f.dFrees.Add(s.Frees)
}

// Swaps returns the number of SwapTable installs so far — the cheap
// per-request read (Stats builds a full snapshot; this is one atomic
// load, suitable for stamping responses with the table epoch that
// served them).
func (f *Fleet) Swaps() uint64 { return f.swaps.Load() }

// FinishRequest accounts one request served on c: fleet and tenant
// counters, the defense-stat delta merge, and the context recycle,
// leaving c ready for its next request or checkout. A request that
// faults is a normal outcome — its context recycles and serving
// continues (crash isolation: one tenant's SIGSEGV never touches
// another's heap).
func (f *Fleet) FinishRequest(c *Context, crashed bool) error {
	f.requests.Add(1)
	c.tel.Inc(telemetry.CtrRequests)
	if crashed {
		f.crashes.Add(1)
		c.tel.Inc(telemetry.CtrCrashes)
	}
	f.merge(c.backend.Defender().Stats())
	if err := c.Reset(); err != nil {
		return fmt.Errorf("fleet: recycling context: %w", err)
	}
	f.resets.Add(1)
	return nil
}
