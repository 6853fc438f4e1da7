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
	"runtime"
	"sync"
	"sync/atomic"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// AllocKind selects the allocator beneath each worker's defense layer.
type AllocKind uint8

// Allocator kinds.
const (
	// AllocBoundaryTag uses the dlmalloc-style boundary-tag heap.
	AllocBoundaryTag AllocKind = iota
	// AllocPool uses the slab-style segregated pool allocator.
	AllocPool
)

func (k AllocKind) String() string {
	switch k {
	case AllocBoundaryTag:
		return "boundary-tag"
	case AllocPool:
		return "pool"
	default:
		return fmt.Sprintf("AllocKind(%d)", uint8(k))
	}
}

// Config configures a Fleet.
type Config struct {
	// Workers is the number of parallel worker goroutines Serve uses
	// (0 = runtime.GOMAXPROCS(0)).
	Workers int
	// Defended selects defended execution; false runs the native
	// (uninstrumented) backend for baseline measurement.
	Defended bool
	// Patches is sealed once at New into the table every defended
	// worker shares. Ignored when Defended is false.
	Patches *patch.Set
	// Alloc selects the underlying allocator for defended workers
	// (native workers always use the boundary-tag heap).
	Alloc AllocKind
	// Space configures each worker's private address space.
	Space mem.Config
	// Mode is the defense mode (default defense.ModeFull).
	Mode defense.Mode
	// Family selects each defended worker's policy family (default
	// defense.FamilyHT). Non-HT families keep the shared-table seams —
	// rollouts still bump every worker's generation — but never consult
	// the table's contents.
	Family defense.Family
	// QueueQuota bounds each worker's deferred-free FIFO
	// (0 = defense.DefaultQueueQuota).
	QueueQuota uint64
	// Engine selects each worker's execution substrate (the compiled
	// engine, the zero value, or the tree interpreter). Serve prepares
	// the program once (prog.Prepare); under EngineCompiled every
	// worker runs the shared immutable bytecode with its own private
	// state — the same shape as the sealed patch table: one read-only
	// artifact, many readers.
	Engine prog.Engine
	// Telemetry, when non-nil, collects per-worker counters, histograms
	// (allocation sizes, patch-lookup cost, per-quantum cycles), and
	// defense trace events. Each worker context binds its own scope, so
	// the collector's per-shard breakdown is the per-tenant aggregation;
	// Stats surfaces the merged snapshot. Enabling telemetry on a
	// defended fleet also turns on per-patch hit counting on the shared
	// sealed table.
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
	// shared sealed table; nil unless telemetry is enabled on a
	// defended fleet.
	PatchHits map[patch.Key]uint64
}

// Fleet is the parallel serving runtime. Construct with New; a Fleet
// is safe for concurrent use (Serve may itself be called from
// multiple goroutines — workers never share contexts).
type Fleet struct {
	cfg Config

	// table is the CURRENT shared sealed table (nil when !cfg.Defended).
	// It is an atomic pointer because SwapTable replaces it under live
	// traffic: readers (Acquire's table sync, Stats) load the pointer,
	// in-flight workers keep probing whichever table their Defender was
	// pointed at when they acquired their context — the old table stays
	// valid forever (immutable), it just stops being handed out.
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
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	f := &Fleet{cfg: cfg}
	if cfg.Defended {
		f.table.Store(f.seal(cfg.Patches))
	}
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

// Workers returns the configured worker count.
func (f *Fleet) Workers() int { return f.cfg.Workers }

// Table returns the CURRENT shared sealed patch table (nil for a
// native fleet).
func (f *Fleet) Table() *defense.SealedTable { return f.table.Load() }

// SwapTable seals a new patch set and installs it as the fleet's
// current table — the code-less patch rollout, performed under live
// traffic with no restart:
//
//   - the new table is built and (if telemetered) hit-enabled BEFORE
//     it becomes visible, so no worker ever sees a half-built table;
//   - the install is one atomic pointer store: contexts acquired after
//     it observe the new table (Acquire re-points pooled Defenders,
//     bumping their generation so every engine verdict cache
//     revalidates), while contexts already in flight keep serving on
//     the old table, which is immutable and therefore valid forever;
//   - nothing is ever mutated in place, so there is no window where a
//     request can fail because of the swap.
//
// The returned table is the installed one. Swapping a native fleet is
// an error — there is no table to swap.
func (f *Fleet) SwapTable(patches *patch.Set) (*defense.SealedTable, error) {
	if !f.cfg.Defended {
		return nil, fmt.Errorf("fleet: SwapTable on a native (undefended) fleet")
	}
	t := f.seal(patches)
	f.table.Store(t)
	f.swaps.Add(1)
	return t, nil
}

// Stats returns a consistent-enough snapshot of fleet statistics:
// each counter is read atomically; the set is not a single atomic
// snapshot (call after Serve returns for exact totals).
func (f *Fleet) Stats() Stats {
	var snap *telemetry.Snapshot
	var hits map[patch.Key]uint64
	if f.cfg.Telemetry != nil {
		snap = f.cfg.Telemetry.Snapshot()
		if t := f.table.Load(); t != nil {
			// Swapped-out tables keep their tallies; the snapshot
			// reports the CURRENT table's hits (post-rollout traffic).
			hits = t.HitCounts()
		}
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

// Serve executes one run of p per input across the fleet's workers
// and returns the i-th result in the i-th slot. Work is distributed
// dynamically (an atomic next-index), so slow requests don't stall a
// fixed shard. A request that faults is a normal outcome — its
// Result.Fault is set, the worker recycles its context, and serving
// continues (crash isolation: one tenant's SIGSEGV never touches
// another's heap). Only infrastructure errors (context construction,
// interpreter setup, a failed recycle) abort the run.
//
// coder may be nil to run without calling-context encoding.
func (f *Fleet) Serve(p *prog.Program, coder *encoding.Coder, inputs [][]byte) ([]*prog.Result, error) {
	n := len(inputs)
	if n == 0 {
		return nil, fmt.Errorf("fleet: Serve with no inputs")
	}
	workers := f.cfg.Workers
	if workers > n {
		workers = n
	}

	// The program is prepared once per Serve and shared read-only by
	// every worker (see Config.Engine).
	pp, err := prog.Prepare(p, prog.Config{Coder: coder, Engine: f.cfg.Engine})
	if err != nil {
		return nil, fmt.Errorf("fleet: preparing program: %w", err)
	}

	results := make([]*prog.Result, n)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = f.serveWorker(pp, inputs, results, &next)
		}(w)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// serveWorker is one worker goroutine's request loop over its private
// context.
func (f *Fleet) serveWorker(pp *prog.Prepared, inputs [][]byte, results []*prog.Result, next *atomic.Int64) error {
	ctx, err := f.Acquire()
	if err != nil {
		return err
	}
	it, err := pp.NewExec(ctx.backend)
	if err != nil {
		f.Release(ctx)
		return fmt.Errorf("fleet: interpreter: %w", err)
	}
	attachQuantumTelemetry(it, ctx.backend, ctx.tel)
	for {
		i := int(next.Add(1)) - 1
		if i >= len(inputs) {
			break
		}
		res, err := it.Run(inputs[i])
		if err != nil {
			return fmt.Errorf("fleet: request %d: %w", i, err)
		}
		results[i] = res
		f.requests.Add(1)
		ctx.tel.Inc(telemetry.CtrRequests)
		if res.Crashed() {
			f.crashes.Add(1)
			ctx.tel.Inc(telemetry.CtrCrashes)
		}
		if ctx.defender != nil {
			f.merge(ctx.defender.Stats())
		}
		// Recycle for the next request (and for Release below): even a
		// faulted request leaves the context fully reusable.
		if err := ctx.Reset(); err != nil {
			return fmt.Errorf("fleet: recycling context: %w", err)
		}
		f.resets.Add(1)
	}
	f.Release(ctx)
	return nil
}

// Swaps returns the number of SwapTable installs so far — the cheap
// per-request read (Stats builds a full snapshot; this is one atomic
// load, suitable for stamping responses with the table epoch that
// served them).
func (f *Fleet) Swaps() uint64 { return f.swaps.Load() }

// FinishRequest accounts one request served on c outside Serve — the
// seam for request-driven front-ends that check contexts out per
// request instead of per batch. It performs exactly what Serve's worker
// loop does after a run: fleet and tenant counters, the defense-stat
// delta merge, and the context recycle, leaving c ready for its next
// checkout. A crashed request is a normal outcome here too.
func (f *Fleet) FinishRequest(c *Context, crashed bool) error {
	f.requests.Add(1)
	c.tel.Inc(telemetry.CtrRequests)
	if crashed {
		f.crashes.Add(1)
		c.tel.Inc(telemetry.CtrCrashes)
	}
	if c.defender != nil {
		f.merge(c.defender.Stats())
	}
	if err := c.Reset(); err != nil {
		return fmt.Errorf("fleet: recycling context: %w", err)
	}
	f.resets.Add(1)
	return nil
}

// telemetryQuantum is the statement interval at which a telemetry-
// enabled worker samples its backend's virtual-cycle accumulator.
const telemetryQuantum = 256

// attachQuantumTelemetry hooks quantum-boundary timing onto it: every
// telemetryQuantum statements the worker counts one quantum and
// histograms the virtual cycles its backend charged since the previous
// boundary. A nil scope leaves the execution unhooked, so untelemetered
// fleets keep the hook seam free for other users (e.g. the campaign
// invariant walker).
func attachQuantumTelemetry(it prog.Exec, backend prog.HeapBackend, tel *telemetry.Scope) {
	if tel == nil {
		return
	}
	var last uint64
	prog.SetQuantumHook(it, telemetryQuantum, func() {
		now := backend.Cycles()
		if now < last {
			last = now // backend was recycled between quanta
			return
		}
		tel.Inc(telemetry.CtrQuanta)
		tel.Observe(telemetry.HistQuantumCycles, now-last)
		last = now
	})
}
