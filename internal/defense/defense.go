// Package defense implements HeapTherapy+'s Online Defense Generator
// (Section VI of the paper): the interposition layer that recognizes
// vulnerable buffers by their allocation-time {FUN, CCID} and enhances
// exactly those buffers.
//
// The paper ships this as an LD_PRELOAD shared library whose
// constructor loads the patch configuration into a read-only hash
// table and whose malloc/free definitions shadow libc's. Here the same
// logic wraps the heapsim.Heap allocator behind the prog.HeapBackend
// interface; as in the paper, the layer maintains all metadata itself
// (in a word preceding each user buffer, Figure 6) and never touches
// allocator internals.
//
// Buffer structures (Figure 6):
//
//	S1 plain:          [meta][user...]
//	S2 guarded:        [meta][user...][pad][guard page]
//	S3 aligned:        [...pad][meta][user (aligned)...]
//	S4 aligned+guard:  [...pad][meta][user (aligned)...][pad][guard page]
//
// The 64-bit metadata word packs, from bit 0: a 4-bit buffer-type field
// (OVERFLOW, UAF, UNINIT-READ, ALIGNED); then either the 48-bit user
// size (S1/S3) or the 36-bit guard-page frame number (S2/S4, with the
// user size stored in the guard page's first word instead); aligned
// buffers add 6 bits of lg(alignment). Freeing follows Figure 7:
// unprotect the guard if present, recover the underlying pointer from
// the alignment info, then either defer the block through the FIFO
// queue (UAF) or forward to the real free.
package defense

import (
	"errors"
	"fmt"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// Metadata word field layout.
const (
	typeBits  = 4
	typeMask  = (1 << typeBits) - 1
	guardBits = 36 // 48-bit VA space minus 12 page bits
	sizeBits  = 48
	alignBits = 6

	// Type-field bits, mirroring patch.TypeMask plus the aligned flag.
	bitOverflow = 1 << 0
	bitUAF      = 1 << 1
	bitUninit   = 1 << 2
	bitAligned  = 1 << 3

	// freedSentinel marks the metadata word of a block parked in the
	// deferred-free queue, so double frees are detected.
	freedSentinel = uint64(0xFEED) << 48

	metaSize = 8
)

// DefaultQueueQuota bounds the deferred-free FIFO (paper default: 2 GiB,
// scaled to the simulation).
const DefaultQueueQuota = 8 << 20

// Mode selects how much of the defense pipeline runs; the evaluation's
// Figure 8 separates these costs.
type Mode uint8

// Modes.
const (
	// ModeInterpose only forwards calls through the interposition
	// layer: the "interposition only" bar of Figure 8.
	ModeInterpose Mode = iota + 1
	// ModeFull maintains per-buffer metadata and consults the patch
	// table on every allocation: the deployed configuration.
	ModeFull
)

func (m Mode) String() string {
	switch m {
	case ModeInterpose:
		return "interpose"
	case ModeFull:
		return "full"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config configures the defense layer.
type Config struct {
	// Mode selects interposition-only or full metadata+patch operation
	// (default ModeFull). Interposition-only measurement is exclusive
	// to the (default) HT family.
	Mode Mode
	// Family selects the defense policy (default FamilyHT: the
	// HeapTherapy+ patch-table defense). See family.go for the policy
	// table and the per-family containment matrix.
	Family Family
	// Patches is the loaded configuration (nil = no patches). Ignored
	// when SharedTable is set.
	Patches *patch.Set
	// SharedTable, when non-nil, makes the Defender probe an immutable
	// table shared with other Defenders (the fleet runtime's
	// configuration) instead of materializing a private table in its
	// own space. Shared lookups are lock-free and must be the ONLY
	// cross-goroutine touch point between Defenders (see the Defender
	// concurrency contract).
	SharedTable *SealedTable
	// QueueQuota bounds the deferred-free FIFO in bytes
	// (0 = DefaultQueueQuota).
	QueueQuota uint64
	// Telemetry, when non-nil, receives the counters with no Stats
	// field (double frees, guard and bounds faults), a patch-lookup
	// cost histogram, and trace events for defense-relevant incidents;
	// Stats.AddTo folds in the rest. Nil (the default) disables
	// telemetry at the cost of one predictable branch per
	// instrumentation point.
	Telemetry *telemetry.Scope
}

// Stats counts defense activity.
type Stats struct {
	// Allocs is the number of allocation calls intercepted.
	Allocs uint64
	// Lookups is the number of patch-table probes (one per allocation
	// in ModeFull).
	Lookups uint64
	// LookupFaults counts patch-table lookups that faulted (corrupted
	// or remapped table). Such a lookup aborts the allocation rather
	// than silently proceeding unpatched.
	LookupFaults uint64
	// PatchedAllocs is the number of allocations recognized as
	// vulnerable.
	PatchedAllocs uint64
	// GuardPages is the number of guard pages installed.
	GuardPages uint64
	// ZeroFills is the number of buffers zero-initialized.
	ZeroFills uint64
	// DeferredFrees counts blocks parked in the FIFO queue.
	DeferredFrees uint64
	// QueueEvictions counts blocks released to the allocator when the
	// quota forced them out.
	QueueEvictions uint64
	// QueueBytes is the current queue occupancy.
	QueueBytes uint64
	// Frees counts free() calls intercepted.
	Frees uint64
}

// Add folds o's counters into s. QueueBytes is a gauge, not a
// counter, so it is left as it is.
func (s *Stats) Add(o Stats) {
	s.Allocs += o.Allocs
	s.Lookups += o.Lookups
	s.LookupFaults += o.LookupFaults
	s.PatchedAllocs += o.PatchedAllocs
	s.GuardPages += o.GuardPages
	s.ZeroFills += o.ZeroFills
	s.DeferredFrees += o.DeferredFrees
	s.QueueEvictions += o.QueueEvictions
	s.Frees += o.Frees
}

// AddTo folds s into a telemetry scope under the counter names. Stats
// is the only store of these counts; whoever ends a run adds its Stats.
func (s Stats) AddTo(tel *telemetry.Scope) {
	tel.Add(telemetry.CtrPatchHits, s.PatchedAllocs)
	tel.Add(telemetry.CtrGuardPages, s.GuardPages)
	tel.Add(telemetry.CtrZeroFills, s.ZeroFills)
	tel.Add(telemetry.CtrDeferredFrees, s.DeferredFrees)
	tel.Add(telemetry.CtrQuarantineRefusals, s.QueueEvictions)
}

// Errors.
var (
	// ErrDoubleFree reports a free of a block already in the deferred
	// queue; the defense aborts like a hardened allocator would.
	ErrDoubleFree = errors.New("defense: double free of deferred block")
)

// queued is one deferred-free entry.
type queued struct {
	base uint64 // underlying pointer to hand to the real free
	user uint64
	size uint64
}

// Defender is the online defense layer over an underlying allocator.
//
// Concurrency contract: a Defender (and the Backend wrapping it) owns
// mutable state — Stats counters, the cycle accumulator, the deferred-
// free queue, its space, and its allocator — with NO synchronization,
// exactly as each simulated process owns its heap. One goroutine per
// Defender, enforced by the race-detector regression tests. The only
// state that may be shared between Defenders on different goroutines
// is an immutable SealedTable (Config.SharedTable), whose lookups are
// read-only. This is the sharing model of the paper's deployment: the
// patch table is process-wide and read-only, everything else is
// per-thread or protected by the allocator's own locks — which this
// simulation replaces with strict per-worker ownership.
type Defender struct {
	under  heapsim.Allocator
	heap   *heapsim.Heap // set when the default allocator backs `under`
	space  *mem.Space
	cfg    Config
	ops    *policyOps   // the selected family's hook table
	table  *patchTable  // private in-space table (nil when shared is set)
	sealed *SealedTable // the private table's source, sealed from cfg.Patches
	shared *SealedTable // immutable cross-worker table (fleet runtime)

	queue []queued

	// bounds is the ShadowBound policy's live-object index, sorted by
	// user address; empty for every other family.
	bounds []boundsEntry

	stats  Stats
	cycles uint64

	// gen counts patch-table (re)establishments; see TableGeneration.
	gen uint64

	// tel is Config.Telemetry; nil disables instrumentation.
	tel *telemetry.Scope
}

// New creates a defense layer over a fresh heap in space. Loading the
// patch set corresponds to the shared library's constructor reading
// the configuration file; after construction the table is never
// mutated, mirroring the paper's read-only remapping of its pages.
// The table is mapped BEFORE the heap arena so the arena remains the
// space's only growing segment (as a real constructor runs before any
// application allocation).
func New(space *mem.Space, cfg Config) (*Defender, error) {
	return NewWithAllocator(space, nil, cfg)
}

// initTable installs the patch table per the configuration: the shared
// immutable table when provided (no space mapping at all), otherwise
// the image of the Defender's own sealed table written into its space
// and made read-only. The patches are sealed once, on first use;
// Reset rewrites the image from the same sealed table.
func (d *Defender) initTable() error {
	// Any (re)establishment of the table — construction or Reset —
	// starts a new table generation, even when the re-established
	// table carries the same patches: the epoch, not a content
	// comparison, says which table a probe saw.
	d.gen++
	if d.cfg.Mode != ModeFull {
		return nil
	}
	if d.cfg.SharedTable != nil {
		d.shared = d.cfg.SharedTable
		return nil
	}
	if d.sealed == nil {
		d.sealed = SealTable(d.cfg.Patches)
	}
	table, err := newPatchTable(d.space, d.sealed)
	if err != nil {
		return err
	}
	d.table = table
	return nil
}

// NewWithAllocator creates a defense layer over a caller-supplied
// underlying allocator — property (5) of the paper: the defense is
// transparent to the allocator beneath it and never touches its
// internals. The allocator must be backed by the same space (for guard
// pages and the patch table), and its caller attaches its telemetry. A
// nil allocator is New's fresh heap, built after the table and
// reporting into cfg.Telemetry.
func NewWithAllocator(space *mem.Space, under heapsim.Allocator, cfg Config) (*Defender, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Defender{space: space, cfg: cfg, ops: &policies[cfg.Family], under: under, tel: cfg.Telemetry}
	if err := d.initTable(); err != nil {
		return nil, err
	}
	if under == nil {
		h, err := heapsim.New(space)
		if err != nil {
			return nil, fmt.Errorf("defense: creating heap: %w", err)
		}
		h.SetTelemetry(cfg.Telemetry)
		d.heap, d.under = h, h
	}
	return d, nil
}

// withDefaults resolves the configuration and validates the family
// selection.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeFull
	}
	if cfg.QueueQuota == 0 {
		cfg.QueueQuota = DefaultQueueQuota
	}
	if cfg.Family >= numFamilies {
		return cfg, fmt.Errorf("defense: unknown policy family %d", cfg.Family)
	}
	if cfg.Family != FamilyHT && cfg.Mode == ModeInterpose {
		return cfg, fmt.Errorf("defense: interposition-only mode is exclusive to the %v policy (got %v)", FamilyHT, cfg.Family)
	}
	return cfg, nil
}

// Heap exposes the default underlying allocator for statistics; nil
// when the Defender was built over a custom allocator.
func (d *Defender) Heap() *heapsim.Heap { return d.heap }

// Stats returns a snapshot of defense statistics.
func (d *Defender) Stats() Stats {
	return d.stats
}

// noteAccessFault classifies a memory-access error from a defended
// execution: a fault on a ProtNone page is a guard-page hit — the
// defense's overflow containment firing — and is counted and traced
// with the access's calling context. Other faults (wild pointers,
// unmapped addresses) are left to the space's own fault telemetry.
func (d *Defender) noteAccessFault(err error, ccid uint64) {
	if d.tel == nil || err == nil {
		return
	}
	fe, ok := mem.AsFault(err)
	if !ok {
		return
	}
	if p, perr := d.space.ProtAt(fe.Addr); perr == nil && p == mem.ProtNone {
		d.tel.Inc(telemetry.CtrGuardFaults)
		d.tel.Event(telemetry.EvGuardFault, ccid, fe.Addr, fe.Len)
	}
}

// Malloc allocates size bytes under calling context ccid.
func (d *Defender) Malloc(ccid, size uint64) (uint64, error) {
	return d.allocate(heapsim.FnMalloc, ccid, size, 0, false)
}

// Calloc allocates n*size zeroed bytes under ccid.
func (d *Defender) Calloc(ccid, n, size uint64) (uint64, error) {
	if size != 0 && n > (1<<sizeBits)/size {
		return 0, fmt.Errorf("%w: calloc(%d, %d)", heapsim.ErrBadSize, n, size)
	}
	p, err := d.allocate(heapsim.FnCalloc, ccid, n*size, 0, false)
	if err != nil {
		return 0, err
	}
	if d.cfg.Mode == ModeFull {
		// The zero fill may already have happened via a patch; calloc
		// semantics demand it regardless.
		if err := d.space.RawMemset(p, 0, n*size); err != nil {
			return 0, fmt.Errorf("defense: calloc zero fill: %w", err)
		}
	}
	return p, nil
}

// Memalign allocates size bytes aligned to align under ccid.
func (d *Defender) Memalign(ccid, align, size uint64) (uint64, error) {
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("%w: %d", heapsim.ErrBadAlignment, align)
	}
	return d.allocate(heapsim.FnMemalign, ccid, size, align, false)
}

// allocate is the interposition entry point for all allocation APIs:
// the bookkeeping every family shares (statistics, the underlying
// allocator's base cost, the interposition hop, the size ceiling),
// then the selected policy's allocation hook.
func (d *Defender) allocate(fn heapsim.AllocFn, ccid, size, align uint64, isRealloc bool) (uint64, error) {
	d.stats.Allocs++
	// The underlying allocator's own work plus the interposition hop.
	d.cycles += prog.CycAlloc + cycInterpose

	if d.cfg.Mode == ModeInterpose {
		// Forward-only: measure pure interposition cost (HT-only; the
		// other families reject this mode at construction).
		switch fn {
		case heapsim.FnCalloc:
			return d.under.Calloc(1, size)
		case heapsim.FnMemalign, heapsim.FnAlignedAlloc:
			return d.under.Memalign(align, size)
		default:
			return d.under.Malloc(size)
		}
	}

	if size >= 1<<sizeBits {
		return 0, fmt.Errorf("%w: %d", heapsim.ErrBadSize, size)
	}
	return d.ops.allocate(d, fn, ccid, size, align, isRealloc)
}

// htAllocate is the HeapTherapy+ allocation hook: patch-table lookup
// on every allocation, then the S1–S4 structure the patch verdict
// selects.
func htAllocate(d *Defender, fn heapsim.AllocFn, ccid, size, align uint64, isRealloc bool) (uint64, error) {
	// O(1) patch lookup on every allocation.
	lookupFn := fn
	if isRealloc {
		lookupFn = heapsim.FnRealloc
	}
	d.stats.Lookups++
	var (
		types  patch.TypeMask
		probes int
		lerr   error
	)
	if d.shared != nil {
		types, probes = d.shared.Lookup(patch.Key{Fn: lookupFn, CCID: ccid})
	} else {
		types, probes, lerr = d.table.lookup(patch.Key{Fn: lookupFn, CCID: ccid})
	}
	d.cycles += cycLookup * uint64(probes)
	if d.tel != nil {
		d.tel.Observe(telemetry.HistLookupCycles, cycLookup*uint64(probes))
	}
	if lerr != nil {
		// A faulting table read means the defense configuration is gone
		// or tampered with; treating it as "no patch installed" would
		// disable the defense without a trace.
		d.stats.LookupFaults++
		return 0, fmt.Errorf("defense: patch lookup for CCID %#x: %w", ccid, lerr)
	}
	if types != 0 {
		d.stats.PatchedAllocs++
		if d.tel != nil {
			site := telemetry.PackSite(uint8(lookupFn), ccid)
			d.tel.Event(telemetry.EvPatchHit, ccid, site, size)
		}
	}

	d.cycles += cycMetadata
	aligned := align > metaSize
	var p uint64
	var err error
	switch {
	case !aligned && !types.Has(patch.TypeOverflow):
		p, err = d.allocS1(size)
	case !aligned && types.Has(patch.TypeOverflow):
		p, err = d.allocS2(size)
	case aligned && !types.Has(patch.TypeOverflow):
		p, err = d.allocS3(size, align)
	default:
		p, err = d.allocS4(size, align)
	}
	if err != nil {
		return 0, err
	}

	// Record the remaining type bits into the metadata word.
	if err := d.orTypeBits(p, typeFieldBits(types, aligned)); err != nil {
		return 0, err
	}

	if types.Has(patch.TypeUninitRead) {
		d.stats.ZeroFills++
		d.cycles += size / prog.CycBytesPerCycle
		if err := d.space.RawMemset(p, 0, size); err != nil {
			return 0, fmt.Errorf("defense: zero fill: %w", err)
		}
	}
	return p, nil
}

// typeFieldBits converts a patch mask (+ alignment) to metadata bits.
func typeFieldBits(types patch.TypeMask, aligned bool) uint64 {
	var b uint64
	if types.Has(patch.TypeOverflow) {
		b |= bitOverflow
	}
	if types.Has(patch.TypeUseAfterFree) {
		b |= bitUAF
	}
	if types.Has(patch.TypeUninitRead) {
		b |= bitUninit
	}
	if aligned {
		b |= bitAligned
	}
	return b
}

// orTypeBits merges type bits into an existing metadata word.
func (d *Defender) orTypeBits(user uint64, bits uint64) error {
	meta, err := d.space.RawLoad64(user - metaSize)
	if err != nil {
		return fmt.Errorf("defense: metadata read: %w", err)
	}
	return d.space.RawStore64(user-metaSize, meta|bits)
}

// allocS1 builds Structure 1: [meta][user], size in the metadata word.
func (d *Defender) allocS1(size uint64) (uint64, error) {
	base, err := d.underlying(metaSize+size, 0)
	if err != nil {
		return 0, err
	}
	user := base + metaSize
	meta := size << typeBits
	if err := d.space.RawStore64(base, meta); err != nil {
		return 0, fmt.Errorf("defense: metadata store: %w", err)
	}
	return user, nil
}

// allocS2 builds Structure 2: [meta][user][pad][guard]; the guard-page
// frame lives in the metadata word and the user size in the guard
// page's first word.
func (d *Defender) allocS2(size uint64) (uint64, error) {
	need := metaSize + size + (mem.PageSize - 1) + mem.PageSize
	base, err := d.underlying(need, 0)
	if err != nil {
		return 0, err
	}
	user := base + metaSize
	guard := mem.PageAlignUp(user + size)
	if err := d.installGuard(user, guard, size); err != nil {
		return 0, err
	}
	return user, nil
}

// allocS3 builds Structure 3: [pad][meta][user aligned]; lg(align) and
// the size live in the metadata word.
func (d *Defender) allocS3(size, align uint64) (uint64, error) {
	base, err := d.underlying(align+size, align)
	if err != nil {
		return 0, err
	}
	user := base + align
	meta := size<<typeBits | lg(align)<<(typeBits+sizeBits)
	if err := d.space.RawStore64(user-metaSize, meta); err != nil {
		return 0, fmt.Errorf("defense: metadata store: %w", err)
	}
	return user, nil
}

// allocS4 builds Structure 4: [pad][meta][user aligned][pad][guard].
func (d *Defender) allocS4(size, align uint64) (uint64, error) {
	need := align + size + (mem.PageSize - 1) + mem.PageSize
	base, err := d.underlying(need, align)
	if err != nil {
		return 0, err
	}
	user := base + align
	guard := mem.PageAlignUp(user + size)
	if err := d.installGuard(user, guard, size); err != nil {
		return 0, err
	}
	if err := d.orTypeBits(user, lg(align)<<(typeBits+guardBits)); err != nil {
		return 0, err
	}
	return user, nil
}

// installGuard writes the guard-style metadata word, stashes the user
// size in the guard page's first word, and protects the page.
func (d *Defender) installGuard(user, guard, size uint64) error {
	meta := (guard >> mem.PageShift) << typeBits
	if err := d.space.RawStore64(user-metaSize, meta); err != nil {
		return fmt.Errorf("defense: metadata store: %w", err)
	}
	if err := d.space.RawStore64(guard, size); err != nil {
		return fmt.Errorf("defense: guard size store: %w", err)
	}
	if err := d.space.Mprotect(guard, mem.PageSize, mem.ProtNone); err != nil {
		return fmt.Errorf("defense: protecting guard page: %w", err)
	}
	d.stats.GuardPages++
	d.cycles += cycMprotect
	return nil
}

// underlying forwards the enlarged request to the real allocator. A
// calloc is forwarded as a malloc too: the defense zeroes the user
// region itself, so raw memory avoids zeroing the metadata slack twice.
func (d *Defender) underlying(size, align uint64) (uint64, error) {
	if align > 0 {
		return d.under.Memalign(align, size)
	}
	return d.under.Malloc(size)
}

// meta describes a decoded metadata word.
type metaInfo struct {
	types   uint64 // 4-bit type field
	size    uint64
	base    uint64 // underlying pointer (pi in Figure 7)
	guard   uint64 // guard page address, 0 if none
	aligned bool
}

// decodeMeta reconstructs buffer facts from the metadata word,
// unprotecting the guard page if one exists (step 1 of Figure 7).
func (d *Defender) decodeMeta(user uint64) (metaInfo, error) {
	word, err := d.space.RawLoad64(user - metaSize)
	if err != nil {
		return metaInfo{}, fmt.Errorf("defense: metadata read at %#x: %w", user-metaSize, err)
	}
	if word&freedSentinel == freedSentinel && word>>typeBits != 0 {
		return metaInfo{}, fmt.Errorf("%w: %#x", ErrDoubleFree, user)
	}
	mi := metaInfo{types: word & typeMask}
	mi.aligned = mi.types&bitAligned != 0

	if mi.types&bitOverflow != 0 {
		frame := (word >> typeBits) & ((1 << guardBits) - 1)
		mi.guard = frame << mem.PageShift
		if err := d.space.Mprotect(mi.guard, mem.PageSize, mem.ProtRW); err != nil {
			return metaInfo{}, fmt.Errorf("defense: unprotecting guard: %w", err)
		}
		d.cycles += cycMprotect
		sz, err := d.space.RawLoad64(mi.guard)
		if err != nil {
			return metaInfo{}, fmt.Errorf("defense: guard size read: %w", err)
		}
		mi.size = sz
		if mi.aligned {
			la := (word >> (typeBits + guardBits)) & ((1 << alignBits) - 1)
			mi.base = user - (uint64(1) << la)
		} else {
			mi.base = user - metaSize
		}
		return mi, nil
	}

	mi.size = (word >> typeBits) & ((1 << sizeBits) - 1)
	if mi.aligned {
		la := (word >> (typeBits + sizeBits)) & ((1 << alignBits) - 1)
		mi.base = user - (uint64(1) << la)
	} else {
		mi.base = user - metaSize
	}
	return mi, nil
}

// Free releases a buffer following the Figure 7 protocol.
func (d *Defender) Free(user uint64) error { return d.FreeCtx(user, 0) }

// FreeCtx is Free carrying the calling context of the free() call, so
// telemetry can attribute double-free rejections and quota evictions to
// the context that triggered them. The defense logic itself never uses
// the CCID — patches are keyed by allocation context, not free context.
func (d *Defender) FreeCtx(user, ccid uint64) error {
	if user == 0 {
		return nil
	}
	d.stats.Frees++
	return d.release(user, ccid)
}

// release is FreeCtx minus the Frees count, for realloc's old buffer.
func (d *Defender) release(user, ccid uint64) error {
	d.cycles += prog.CycFree + cycInterpose
	if d.cfg.Mode == ModeInterpose {
		return d.under.Free(user)
	}
	return d.ops.free(d, user, ccid)
}

// htFree is the HeapTherapy+ free hook, following the Figure 7
// protocol: decode the metadata word (unprotecting any guard), then
// defer UAF-patched blocks through the quarantine or forward to the
// real free.
func htFree(d *Defender, user, ccid uint64) error {
	d.cycles += cycMetadata // decode the metadata word, recover pi
	mi, err := d.decodeMeta(user)
	if err != nil {
		if d.tel != nil && errors.Is(err, ErrDoubleFree) {
			d.tel.Inc(telemetry.CtrDoubleFrees)
			d.tel.Event(telemetry.EvDoubleFree, ccid, user, 0)
		}
		return err
	}
	if mi.types&bitUAF != 0 {
		return d.deferFree(mi, user, ccid)
	}
	return d.under.Free(mi.base)
}

// deferFree parks a decoded block in the FIFO quarantine: the metadata
// word is marked so a double free is caught while the block is held,
// and the quota evicts the oldest entries back to the real allocator.
// Shared by HT (UAF-patched buffers only) and MESH (every free).
func (d *Defender) deferFree(mi metaInfo, user, ccid uint64) error {
	if err := d.space.RawStore64(user-metaSize, freedSentinel|mi.types); err != nil {
		return fmt.Errorf("defense: marking deferred block: %w", err)
	}
	d.queue = append(d.queue, queued{base: mi.base, user: user, size: mi.size})
	d.stats.QueueBytes += mi.size
	d.stats.DeferredFrees++
	d.cycles += cycQueue
	for d.stats.QueueBytes > d.cfg.QueueQuota && len(d.queue) > 0 {
		old := d.queue[0]
		d.queue = d.queue[1:]
		d.stats.QueueBytes -= old.size
		d.stats.QueueEvictions++
		// The quota forced this block back into circulation: the
		// quarantine refused to keep holding it.
		d.tel.Event(telemetry.EvQuarantineRefusal, ccid, old.user, old.size)
		if err := d.under.Free(old.base); err != nil {
			return fmt.Errorf("defense: releasing deferred block: %w", err)
		}
	}
	return nil
}

// Realloc resizes a defended buffer. Per Section V, the buffer's CCID
// is updated to the realloc call's context, so the patch lookup uses
// {realloc, ccid}; metadata bookkeeping forces the allocate-copy-free
// path, as the paper's self-contained metadata design does.
func (d *Defender) Realloc(ccid, user, size uint64) (uint64, error) {
	if user == 0 {
		return d.allocate(heapsim.FnRealloc, ccid, size, 0, true)
	}
	if d.cfg.Mode == ModeInterpose {
		d.stats.Allocs++
		d.cycles += prog.CycAlloc + cycInterpose
		return d.under.Realloc(user, size)
	}
	return d.ops.realloc(d, ccid, user, size)
}

// htUsableSize decodes the metadata word (re-protecting any guard the
// decode unprotected). Also serves MESH, whose buffers use the same
// guard-free metadata layout.
func htUsableSize(d *Defender, user uint64) (uint64, error) {
	mi, err := d.decodeMeta(user)
	if err != nil {
		return 0, err
	}
	if mi.guard != 0 {
		// decodeMeta unprotected the guard to read the size; restore.
		if err := d.space.Mprotect(mi.guard, mem.PageSize, mem.ProtNone); err != nil {
			return 0, fmt.Errorf("defense: reprotecting guard: %w", err)
		}
	}
	return mi.size, nil
}

// Cycles returns accumulated virtual-cycle cost of defense work.
func (d *Defender) Cycles() uint64 { return d.cycles }

// TableGeneration returns the patch-table epoch: a counter that changes
// whenever the table is (re)established — at construction, on every
// Reset and on every SwapSharedTable — even when the new table carries
// identical patches. Observers (the swap tests, backend wrappers) read
// it to tell whether a rollout has reached this Defender.
func (d *Defender) TableGeneration() uint64 { return d.gen }

// SharedTable returns the immutable cross-worker table this Defender
// probes, nil when it materialized a private in-space table instead.
func (d *Defender) SharedTable() *SealedTable { return d.shared }

// SwapSharedTable re-points a shared-table Defender at a new sealed
// table — the code-less patch rollout primitive. The old table is
// untouched (other workers may still be probing it) and the swap bumps
// the table generation; the very next allocation looks up the new
// table.
//
// Contract: only the owning goroutine may call this (the swap mutates
// unsynchronized Defender state, like every other mutation), and only
// on a Defender constructed with Config.SharedTable — a private
// in-space table cannot be swapped because its pages live inside the
// worker's own space. The configuration is updated too, so a later
// Reset re-establishes the NEW table, not the one the Defender was
// built with.
func (d *Defender) SwapSharedTable(t *SealedTable) error {
	if d.cfg.SharedTable == nil {
		return fmt.Errorf("defense: SwapSharedTable on a Defender without a shared table")
	}
	if t == nil {
		return fmt.Errorf("defense: SwapSharedTable with nil table")
	}
	d.cfg.SharedTable = t
	d.shared = t
	d.gen++
	return nil
}

// ProbePatched reports whether an allocation through fn at ccid would
// hit an installed patch. Unlike the lookup on the allocation path it
// is completely side-effect-free — no statistics, no cycle charges — so
// profiling layers can classify sites without perturbing the defended
// execution they observe. Interposition-only mode has no table and
// probes false.
func (d *Defender) ProbePatched(fn heapsim.AllocFn, ccid uint64) bool {
	if d.cfg.Mode != ModeFull || d.cfg.Family != FamilyHT {
		// Only the HT policy acts on patches; the other families keep
		// the table seams (swap, generation) for rollout plumbing but
		// never consult the contents.
		return false
	}
	key := patch.Key{Fn: fn, CCID: ccid}
	if d.shared != nil {
		return d.shared.Probe(key) != 0
	}
	if d.table == nil {
		return false
	}
	types, _, err := d.table.lookup(key)
	return err == nil && types != 0
}

// Reset returns the Defender to its freshly constructed state over a
// space that has itself just been Reset: statistics, cycle accounting,
// and the deferred-free queue are cleared (reusing the queue's
// capacity), the patch table is re-established, and the default heap
// (if this Defender owns one) is re-initialized. With a shared sealed
// table the table step is free — nothing is re-materialized — which is
// what makes a fleet worker's recycle O(touched state) instead of
// O(configuration). A Defender built over a caller-supplied allocator
// (NewWithAllocator) does not reset that allocator; the caller must,
// after this returns (construction order: table pages map below the
// allocator's memory, and Reset preserves it).
func (d *Defender) Reset() error {
	d.queue = d.queue[:0]
	d.stats = Stats{}
	d.cycles = 0
	if d.ops.reset != nil {
		d.ops.reset(d)
	}
	if err := d.initTable(); err != nil {
		return fmt.Errorf("defense: reset: %w", err)
	}
	if d.heap != nil {
		if err := d.heap.Reset(); err != nil {
			return fmt.Errorf("defense: reset: %w", err)
		}
	}
	return nil
}

// ResetPatches is Reset with a patch-set swap: the Defender re-arms
// over a different configuration, as the campaign's pooled workbench
// does per seed (each generated case carries its own analysis-derived
// patches). It seals the new set and Reset writes its image in the same
// construction order a fresh Defender uses (table pages below the
// arena), so a recycled Defender with swapped patches is bit-identical
// to one built fresh with them. Only valid on a private table: a shared
// sealed table is immutable by contract and owned by the fleet that
// sealed it.
func (d *Defender) ResetPatches(set *patch.Set) error {
	if d.cfg.SharedTable != nil {
		return fmt.Errorf("defense: ResetPatches on a shared sealed table")
	}
	d.cfg.Patches = set
	d.sealed = nil
	return d.Reset()
}

// lg returns floor(log2(x)) for x > 0.
func lg(x uint64) uint64 {
	var n uint64
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// Virtual-cycle costs of defense mechanisms, added to the cost model
// of prog/cost.go. The underlying allocator's work is charged as
// prog.CycAlloc/CycFree, the native backend's own charges: it happens
// beneath the interposition layer either way, so defended and native
// executions pay the same base and differ only by the defense's
// additions — exactly how the paper decomposes Figure 8. Zero fills
// run at prog.CycBytesPerCycle.
const (
	cycInterpose = 2
	cycLookup    = 3
	cycMetadata  = 3
	cycMprotect  = 300
	cycQueue     = 8
)
