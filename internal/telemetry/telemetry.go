// Package telemetry is the runtime observability layer: low-overhead
// counters, fixed-bucket histograms, and a lock-free event trace that
// every layer of the defended stack (allocator, defense, shadow
// analysis, fleet runtime) reports into, so a campaign or a serving
// fleet can explain WHAT happened — which patches fired, how often, at
// which allocation sites, and what checking cost — instead of just
// pass/fail.
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every instrumentation point in the hot
//     paths is guarded by a nil check on a *Scope field; a nil Scope
//     is the disabled state and costs one predictable branch. The
//     zero-alloc pins in the instrumented packages and the CI
//     telemetry-pin step hold this contract.
//  2. Enabled must be lock-free. Counters and histogram buckets are
//     atomic adds into per-tenant shards; the event ring claims slots
//     with one atomic add and publishes them with a per-slot sequence
//     word (a seqlock), so writers never block and a concurrent
//     snapshot never tears an event.
//  3. Counters are exact, events are best-effort. Concurrent
//     increments are never lost (the -race concurrency tests assert
//     this); ring entries may be overwritten by newer events once the
//     ring wraps, which is the usual flight-recorder trade.
//
// The package is a leaf: it imports only the standard library, so the
// memory simulator, the allocators, and the defense layers can all
// report into it without import cycles.
package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// CounterID names one monotonic counter. Counters are namespaced by
// the layer that owns the increment so cross-layer totals never double
// count: allocator traffic is counted by heapsim (beneath any defense
// layer), defense activity by the Defender, faults by the space.
type CounterID uint8

// Counters.
const (
	// CtrAllocs counts the allocator's chunk grants, a moving
	// realloc's included. It is bumped per event, not folded from
	// heapsim.Stats, whose Mallocs counts calls: a different event.
	CtrAllocs CounterID = iota
	// CtrFrees counts the allocator's chunk releases, a moving
	// realloc's included; heapsim.Stats.Frees counts free calls.
	CtrFrees
	// CtrPatchHits counts allocations the defense recognized as
	// vulnerable (a patch-table hit with a nonzero type mask).
	CtrPatchHits
	// CtrGuardPages counts guard pages installed by the defense.
	CtrGuardPages
	// CtrZeroFills counts buffers zero-initialized against
	// uninitialized reads.
	CtrZeroFills
	// CtrDeferredFrees counts blocks parked in a deferred-free
	// quarantine (defense FIFO or shadow freed-block queue).
	CtrDeferredFrees
	// CtrQuarantineRefusals counts blocks a quarantine declined to
	// hold: quota-forced evictions and filter-rejected deferrals. The
	// defense folds in its Stats.QueueEvictions; shadow's refusals have
	// no Stats twin and are bumped per event.
	CtrQuarantineRefusals
	// CtrDoubleFrees counts double frees rejected by the defense.
	CtrDoubleFrees
	// CtrFaults counts access violations reported by the simulated
	// address space.
	CtrFaults
	// CtrGuardFaults counts faults that landed on a guard page — an
	// overflow the defense stopped.
	CtrGuardFaults
	// CtrShadowWarnings counts warnings recorded by the shadow-memory
	// analyzer.
	CtrShadowWarnings
	// CtrQuanta counts interpreter quanta observed via the quantum
	// hook.
	CtrQuanta
	// CtrRequests counts requests served by the fleet runtime.
	CtrRequests
	// CtrCrashes counts served requests that ended in a fault.
	CtrCrashes
	// CtrBoundsFaults counts accesses rejected by a per-object bounds
	// check (the ShadowBound policy's containment firing).
	CtrBoundsFaults

	// NumCounters is the number of counter IDs.
	NumCounters
)

var counterNames = [NumCounters]string{
	CtrAllocs:             "allocs",
	CtrFrees:              "frees",
	CtrPatchHits:          "patch_hits",
	CtrGuardPages:         "guard_pages",
	CtrZeroFills:          "zero_fills",
	CtrDeferredFrees:      "deferred_frees",
	CtrQuarantineRefusals: "quarantine_refusals",
	CtrDoubleFrees:        "double_frees",
	CtrFaults:             "faults",
	CtrGuardFaults:        "guard_faults",
	CtrShadowWarnings:     "shadow_warnings",
	CtrQuanta:             "quanta",
	CtrRequests:           "requests",
	CtrCrashes:            "crashes",
	CtrBoundsFaults:       "bounds_faults",
}

func (c CounterID) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("CounterID(%d)", uint8(c))
}

// HistogramID names one fixed-bucket histogram.
type HistogramID uint8

// Histograms.
const (
	// HistAllocSize distributes allocation request sizes in bytes, as
	// the allocator sees them.
	HistAllocSize HistogramID = iota
	// HistLookupCycles distributes per-allocation patch-lookup cost in
	// virtual cycles (probes x per-probe cost).
	HistLookupCycles
	// HistQuantumCycles distributes virtual-cycle durations of
	// interpreter quanta, observed through the prog.SetQuantumHook
	// seam.
	HistQuantumCycles

	// NumHistograms is the number of histogram IDs.
	NumHistograms
)

var histogramNames = [NumHistograms]string{
	HistAllocSize:     "alloc_size",
	HistLookupCycles:  "lookup_cycles",
	HistQuantumCycles: "quantum_cycles",
}

func (h HistogramID) String() string {
	if h < NumHistograms {
		return histogramNames[h]
	}
	return fmt.Sprintf("HistogramID(%d)", uint8(h))
}

// NumBuckets is the per-histogram bucket count. Bucket 0 holds zero
// values; bucket i (i >= 1) holds values in [2^(i-1), 2^i); the last
// bucket additionally absorbs everything larger — fixed power-of-two
// buckets, so Observe is a bit-length and an atomic add.
const NumBuckets = 20

// bucketFor maps a value to its bucket index.
func bucketFor(v uint64) int {
	b := bits.Len64(v)
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// BucketBounds reports the [lo, hi] value range of bucket i; the last
// bucket's hi is ^uint64(0) (unbounded).
func BucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = 1 << (i - 1)
	if i == NumBuckets-1 {
		return lo, ^uint64(0)
	}
	return lo, 1<<i - 1
}

// EventKind classifies one trace event.
type EventKind uint8

// Event kinds.
const (
	// EvPatchHit is an allocation recognized as vulnerable: CCID is
	// the allocation-time calling context, Site the packed {FUN, CCID}
	// patch key, Arg the requested size.
	EvPatchHit EventKind = iota + 1
	// EvGuardFault is a fault on a guard page: Arg is the faulting
	// address.
	EvGuardFault
	// EvQuarantineRefusal is a block a quarantine declined to hold
	// (quota eviction or filter rejection): Arg is the block address.
	EvQuarantineRefusal
	// EvDoubleFree is a rejected double free: CCID is the freeing
	// context, Arg the freed address.
	EvDoubleFree
	// EvShadowWarning is a shadow-analysis warning: CCID is the
	// faulting access context, Site the vulnerable buffer's packed
	// allocation {FUN, CCID}, Arg the affected address.
	EvShadowWarning
	// EvFault is an access violation reported by the space: Arg is the
	// faulting address.
	EvFault
	// EvBoundsFault is an access rejected by a per-object bounds check:
	// CCID is the accessing context, Arg the faulting address.
	EvBoundsFault
)

var eventNames = map[EventKind]string{
	EvPatchHit:          "patch-hit",
	EvGuardFault:        "guard-fault",
	EvQuarantineRefusal: "quarantine-refusal",
	EvDoubleFree:        "double-free",
	EvShadowWarning:     "shadow-warning",
	EvFault:             "fault",
	EvBoundsFault:       "bounds-fault",
}

func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// PackSite folds an allocation-site identity — the paper's {FUN, CCID}
// pair — into one word: the allocation function in the top byte, the
// CCID's low 56 bits below. This mirrors the defense patch table's key
// packing, so a patch-hit event's Site can be compared directly
// against a loaded patch key.
func PackSite(fn uint8, ccid uint64) uint64 {
	return uint64(fn)<<56 | ccid&(1<<56-1)
}

// SiteFn extracts the allocation function from a packed site.
func SiteFn(site uint64) uint8 { return uint8(site >> 56) }

// SiteCCID extracts the CCID's low 56 bits from a packed site.
func SiteCCID(site uint64) uint64 { return site & (1<<56 - 1) }

// Event is one decoded trace entry.
type Event struct {
	// Seq is the global write sequence number (0-based).
	Seq uint64 `json:"seq"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Tenant is the reporting scope's tenant ID.
	Tenant uint32 `json:"tenant"`
	// CCID is the calling-context ID current at the event (meaning
	// varies per kind; see the kind docs).
	CCID uint64 `json:"ccid"`
	// Site is the packed {FUN, CCID} allocation-site identity, 0 when
	// unknown.
	Site uint64 `json:"site"`
	// Arg is the kind-specific payload (size or address).
	Arg uint64 `json:"arg"`
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s tenant=%d ccid=%#x site=fn%d@%#x arg=%#x",
		e.Seq, e.Kind, e.Tenant, e.CCID, SiteFn(e.Site), SiteCCID(e.Site), e.Arg)
}

// Config parameterizes a Collector. The zero value is the default.
type Config struct {
	// Shards is the counter shard count, rounded up to a power of two
	// (0 = DefaultShards). Tenant t reports into shard t % Shards, so
	// a fleet with at most Shards workers gets per-tenant counter
	// resolution and contention-free increments.
	Shards int
	// RingSize is the event-ring capacity, rounded up to a power of
	// two (0 = DefaultRingSize).
	RingSize int
}

// Defaults for Config.
const (
	DefaultShards   = 8
	DefaultRingSize = 1024
)

// shard is one cache-padded block of counters and histogram buckets.
type shard struct {
	counters [NumCounters]atomic.Uint64
	hist     [NumHistograms][NumBuckets]atomic.Uint64
	_        [64]byte // keep neighboring shards off one cache line
}

// Collector owns the shared telemetry state: counter shards and the
// event ring. All methods are safe for concurrent use; the zero
// Collector is not valid — construct with New.
type Collector struct {
	shards []shard
	smask  uint32
	ring   ring
	scopes atomic.Uint32
}

// New creates a collector.
func New(cfg Config) *Collector {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	ns := ceilPow2(cfg.Shards)
	c := &Collector{shards: make([]shard, ns), smask: uint32(ns - 1)}
	c.ring.init(ceilPow2(cfg.RingSize))
	return c
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Scope issues a handle with the next tenant ID. Scopes are how the
// instrumented layers report: each worker context (or single-run
// pipeline) holds one, and a nil *Scope is the disabled state every
// instrumentation point checks for.
func (c *Collector) Scope() *Scope {
	return c.ScopeFor(c.scopes.Add(1) - 1)
}

// ScopeFor issues a handle bound to an explicit tenant ID (shard
// tenant % Shards).
func (c *Collector) ScopeFor(tenant uint32) *Scope {
	return &Scope{col: c, sh: &c.shards[tenant&c.smask], tenant: tenant}
}

// Reset clears the collector in place: every counter and histogram
// bucket returns to zero and the event ring empties. Scopes already
// issued remain valid and keep reporting into the same shards, and the
// issued-scope count (Snapshot.Tenants) is preserved — so a pooled pipeline
// that built its scopes once can recycle the collector per run and
// take snapshots bit-identical to a fresh collector with the same
// scopes. Reset is not one atomic cut across writers; quiesce them
// first (the campaign workbench resets between single-threaded cell
// runs, where this holds trivially).
func (c *Collector) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		for j := range sh.counters {
			sh.counters[j].Store(0)
		}
		for h := range sh.hist {
			for k := range sh.hist[h] {
				sh.hist[h][k].Store(0)
			}
		}
	}
	c.ring.reset()
}

// Scope is a per-tenant reporting handle. All methods are safe for
// concurrent use and safe on a nil receiver (the disabled state):
// instrumented code holds a *Scope field that is nil when telemetry is
// off, making every instrumentation point one predictable branch.
type Scope struct {
	col    *Collector
	sh     *shard
	tenant uint32
}

// Inc adds 1 to a counter.
func (s *Scope) Inc(id CounterID) {
	if s == nil {
		return
	}
	s.sh.counters[id].Add(1)
}

// Add folds n into a counter (a count kept in a Stats); 0 is a no-op.
func (s *Scope) Add(id CounterID, n uint64) {
	if s == nil || n == 0 {
		return
	}
	s.sh.counters[id].Add(n)
}

// Observe records a value into a histogram.
func (s *Scope) Observe(h HistogramID, v uint64) {
	if s == nil {
		return
	}
	s.sh.hist[h][bucketFor(v)].Add(1)
}

// Event appends a trace event to the ring.
func (s *Scope) Event(kind EventKind, ccid, site, arg uint64) {
	if s == nil {
		return
	}
	s.col.ring.push(kind, s.tenant, ccid, site, arg)
}
