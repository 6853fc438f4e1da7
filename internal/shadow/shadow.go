// Package shadow implements the offline attack-analysis heap: a
// Memcheck-style shadow memory over the simulated address space,
// extended — as Section V of the paper describes — to associate every
// heap buffer with its allocation-time calling-context ID.
//
// For every byte of memory the backend maintains an Accessibility bit
// (A-bit) and a V-bit mask (one validity bit per data bit); for every
// byte it also tracks an origin tag that leads back to the allocating
// {FUN, CCID}. Heap buffers are surrounded by 16-byte red zones marked
// inaccessible; freed buffers are marked inaccessible and parked in a
// quota-bounded FIFO queue so stale pointers keep faulting instead of
// hitting recycled memory. V-bits propagate on every copy and are
// checked only at use points (control flow, addresses, system calls),
// which avoids the padding false positives of Figure 4.
//
// Unlike the online defense, this backend never stops the program: it
// records warnings and resumes (Section V, "How to handle multiple
// vulnerabilities"), so a single attack input can reveal every
// vulnerability it exercises. Writes that fault are applied only where
// they land in red zones or freed buffers — regions this tool owns —
// and dropped where they would corrupt live program or allocator
// state, keeping long analysis runs alive.
package shadow

import (
	"fmt"
	"slices"
	"sort"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// redZone is the red-zone size on each side of a buffer.
const redZone uint64 = 16

// Defaults for Config.
const (
	// DefaultQueueQuota bounds the freed-block FIFO queue. The paper
	// uses 2 GiB on real workloads; analysis programs in this
	// simulation are far smaller, so the default is scaled down while
	// remaining far above any corpus program's live heap.
	DefaultQueueQuota = 8 << 20
)

// Config parameterizes the analysis backend.
type Config struct {
	// QueueQuota bounds the total bytes parked in the freed-block
	// queue (0 = DefaultQueueQuota).
	QueueQuota uint64
	// DeferFilter, when non-nil, restricts free-deferral to buffers
	// whose allocation-time CCID it accepts; other buffers are released
	// immediately. This implements Section IX's quota-partitioned
	// analysis: when a program's freed memory exceeds the queue quota,
	// the attack is replayed N times, each run deferring only one
	// CCID subspace, so every run consumes ~1/N of the memory.
	DeferFilter func(allocCCID uint64) bool
	// Telemetry, when non-nil, receives a counter and trace event per
	// recorded warning and per block the freed-block quarantine could
	// not retain (filter rejection or quota eviction).
	Telemetry *telemetry.Scope
}

// chunk tracks one live or freed heap buffer.
type chunk struct {
	base     uint64 // underlying allocation address
	user     uint64 // user-visible payload address
	size     uint64 // user-visible size
	fn       heapsim.AllocFn
	ccid     uint64 // allocation-time CCID
	originID uint32
	aligned  bool
	freed    bool
	freeCCID uint64 // context of the free() call, for UAF reports
	released bool   // evicted from the FIFO queue; memory returned
}

func (c *chunk) end() uint64 { return c.user + c.size }

// origin records where an origin tag came from.
type origin struct {
	fn   heapsim.AllocFn
	ccid uint64
}

// Backend is the shadow-memory heap; it implements prog.HeapBackend.
type Backend struct {
	heap  *heapsim.Heap
	space *mem.Space
	cfg   Config

	// Shadow planes, indexed by offset from floor. They start at the
	// analysis heap's arena, not at the space's base, so the reserve
	// below it costs nothing until something there is touched; then
	// the floor moves down to that page. Bytes outside the planes hold
	// the defaults: accessible, fully valid, no origin.
	access  []bool   // A-bits (true = accessible)
	vmask   []byte   // V-bit mask per byte (0xFF = fully valid)
	originT []uint32 // origin tag per byte
	floor   uint64   // address of plane offset 0

	origins []origin // origin table; tag N is origins[N-1]

	// Chunk index: sorted by user address for containment lookups.
	chunks []*chunk

	// Freed-block FIFO.
	queue      []*chunk
	queueBytes uint64

	warnings []Warning
	warnSeen map[warnKey]bool

	cycles uint64

	// touchLo/touchHi watermark the plane region dirtied since the last
	// Reset (plane offsets, lo > hi when untouched), so Reset restores
	// defaults only over what a run actually wrote instead of
	// re-clearing megabytes of already-default plane.
	touchLo, touchHi uint64

	// cpScratch and setScratch are reusable buffers for the Memcpy and
	// Memset slow paths, so falling off the fast path costs a copy, not
	// an allocation per call.
	cpScratch  prog.Value
	setScratch []byte

	// forceRef routes every kernel through its naive refXxx
	// predecessor; set only by the differential tests.
	forceRef bool
}

var (
	_ prog.HeapBackend = (*Backend)(nil)
	_ prog.BulkLoader  = (*Backend)(nil)
)

// warnKey dedupes chained warnings: once a buffer has warned for a
// vulnerability type at a use kind, repeats are suppressed, mirroring
// the paper's set-valid-after-check rule.
type warnKey struct {
	originID uint32
	chunkID  uint64 // chunk user address for overflow/UAF
	typ      patch.TypeMask
	use      prog.UseKind
	write    bool // overwrite vs overread are distinct findings
}

// New creates a shadow backend with a fresh heap in space.
func New(space *mem.Space, cfg Config) (*Backend, error) {
	floor := space.End() // where the heap's arena begins
	h, err := heapsim.New(space)
	if err != nil {
		return nil, fmt.Errorf("shadow: creating analysis heap: %w", err)
	}
	if cfg.QueueQuota == 0 {
		cfg.QueueQuota = DefaultQueueQuota
	}
	// Allocator-level counts flow into the same scope as the analysis
	// events.
	h.SetTelemetry(cfg.Telemetry)
	return &Backend{
		heap:     h,
		space:    space,
		cfg:      cfg,
		warnSeen: make(map[warnKey]bool),
		floor:    floor,
		touchLo:  ^uint64(0),
	}, nil
}

// Reset recycles the backend for a fresh analysis run. The caller must
// Reset the space first; the underlying heap then re-establishes its
// arena at the same address a fresh construction would, and the chunk
// index, origin table, freed-block queue, warnings, and cycle count
// clear. The shadow planes restore their defaults (accessible, fully
// valid, no origin) over the touched watermark only, so reset cost is
// proportional to what the previous run dirtied — the same contract as
// mem.Space.Reset. The planes keep their extent (and a lowered floor)
// across resets. The campaign's pooled-vs-fresh differential test
// proves a Reset backend bit-identical to a new one over the full
// oracle matrix.
//
// The warnings slice is dropped rather than truncated: Warnings()
// hands out the live slice, and reports taken from a previous run must
// not see their findings overwritten by the next one.
func (b *Backend) Reset() error {
	if err := b.heap.Reset(); err != nil {
		return fmt.Errorf("shadow: reset: %w", err)
	}
	if b.touchLo < b.touchHi {
		lo, hi := b.touchLo, b.touchHi
		if n := uint64(len(b.access)); hi > n {
			hi = n
		}
		if lo < hi {
			fill(b.access[lo:hi], true)
			fill(b.vmask[lo:hi], byte(0xFF))
			fill(b.originT[lo:hi], uint32(0))
		}
	}
	b.touchLo, b.touchHi = ^uint64(0), 0
	b.origins = b.origins[:0]
	b.chunks = b.chunks[:0]
	b.queue = b.queue[:0]
	b.queueBytes = 0
	b.warnings = nil
	clear(b.warnSeen)
	b.cycles = 0
	return nil
}

// notePlanes widens the touch watermark to cover n plane bytes at
// offset o. Every plane write site calls it (conservatively — noting
// more than was written only makes Reset clear a few extra default
// bytes, never miss a dirty one).
func (b *Backend) notePlanes(o, n uint64) {
	if n == 0 {
		return
	}
	if o < b.touchLo {
		b.touchLo = o
	}
	if o+n > b.touchHi {
		b.touchHi = o + n
	}
}

// Warnings returns all recorded warnings in detection order.
func (b *Backend) Warnings() []Warning { return b.warnings }

// Cycles implements prog.HeapBackend. Shadow execution is heavyweight
// by design (Valgrind's Memcheck costs ~22x); the multiplier documents
// that, though offline analysis time is not part of any paper table.
func (b *Backend) Cycles() uint64 { return b.cycles }

// --- shadow plane bookkeeping ----------------------------------------------

// off converts an address to a shadow-plane index, growing the planes
// on demand: up to the break (with amortized capacity, as the heap
// grows page by page), or down to addr's page when addr lies below
// the floor. Returns false for addresses outside the space. A downward
// growth shifts every offset, so callers must not hold an offset taken
// before a call that may lower the floor.
func (b *Backend) off(addr uint64) (uint64, bool) {
	if addr < b.space.Base() || addr >= b.space.End() {
		return 0, false
	}
	if addr < b.floor {
		b.lowerFloor(addr &^ (mem.PageSize - 1))
	}
	o := addr - b.floor
	if o >= uint64(len(b.access)) {
		n := int(b.space.End() - b.floor)
		b.access = growPlane(b.access, n, true)
		b.vmask = growPlane(b.vmask, n, 0xFF)
		b.originT = growPlane(b.originT, n, 0)
	}
	return o, true
}

// growPlane extends p to n elements, the new ones set to def (memory
// outside tracked heap buffers — globals, allocator slack — defaults
// to accessible and valid).
func growPlane[T bool | byte | uint32](p []T, n int, def T) []T {
	old := len(p)
	p = slices.Grow(p, n-old)[:n]
	fill(p[old:], def)
	return p
}

// lowerFloor moves the planes' floor down to the page-aligned address
// lo, prepending default-valued entries and shifting the touch
// watermark with the offsets it records.
func (b *Backend) lowerFloor(lo uint64) {
	d := int(b.floor - lo)
	b.access = prependPlane(b.access, d, true)
	b.vmask = prependPlane(b.vmask, d, 0xFF)
	b.originT = prependPlane(b.originT, d, 0)
	b.floor = lo
	if b.touchLo < b.touchHi {
		b.touchLo += uint64(d)
		b.touchHi += uint64(d)
	}
}

// prependPlane returns p with d entries set to def in front of it.
func prependPlane[T bool | byte | uint32](p []T, d int, def T) []T {
	q := make([]T, d+len(p))
	fill(q[:d], def)
	copy(q[d:], p)
	return q
}

// planeRange grows the planes to cover [addr, addr+n) and returns the
// plane offset of addr; n must be nonzero and the range in-space.
func (b *Backend) planeRange(addr, n uint64) (uint64, bool) {
	o, ok := b.off(addr)
	if !ok {
		return 0, false
	}
	if _, ok := b.off(addr + n - 1); !ok {
		return 0, false
	}
	return o, true
}

// markRange sets A-bits, V-masks, and origins over [addr, addr+n),
// clamped to the space, with bulk plane fills.
func (b *Backend) markRange(addr, n uint64, accessible bool, vm byte, org uint32) {
	if b.forceRef {
		b.refMarkRange(addr, n, accessible, vm, org)
		return
	}
	if n == 0 {
		return
	}
	end := addr + n
	if end < addr || end > b.space.End() {
		end = b.space.End()
	}
	if addr >= end {
		return
	}
	m := end - addr
	o, ok := b.planeRange(addr, m)
	if !ok {
		return
	}
	b.notePlanes(o, m)
	fill(b.access[o:o+m], accessible)
	fill(b.vmask[o:o+m], vm)
	fill(b.originT[o:o+m], org)
}

// refMarkRange is the naive per-byte predecessor of markRange.
func (b *Backend) refMarkRange(addr, n uint64, accessible bool, vm byte, org uint32) {
	if end := addr + n; n > 0 && end >= addr {
		if end > b.space.End() {
			end = b.space.End()
		}
		if o, ok := b.off(addr); ok {
			b.notePlanes(o, end-addr)
		}
	}
	for i := uint64(0); i < n; i++ {
		o, ok := b.off(addr + i)
		if !ok {
			return
		}
		b.access[o] = accessible
		b.vmask[o] = vm
		b.originT[o] = org
	}
}

// fill sets every element of dst to v at copy bandwidth: zero values
// compile to a memclr, nonzero values seed one element and double with
// copy.
func fill[T bool | byte | uint32](dst []T, v T) {
	var zero T
	if v == zero {
		clear(dst)
		return
	}
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for filled := 1; filled < len(dst); filled *= 2 {
		copy(dst[filled:], dst[:filled])
	}
}

// allTrue reports whether every A-bit in the slice is set: the
// fast-path predicate for "no red zone, freed block, or unmapped byte
// in range".
func allTrue(a []bool) bool {
	for _, v := range a {
		if !v {
			return false
		}
	}
	return true
}

// newOrigin allocates an origin tag.
func (b *Backend) newOrigin(fn heapsim.AllocFn, ccid uint64) uint32 {
	b.origins = append(b.origins, origin{fn: fn, ccid: ccid})
	return uint32(len(b.origins))
}

// originInfo resolves an origin tag.
func (b *Backend) originInfo(tag uint32) (origin, bool) {
	if tag == 0 || int(tag) > len(b.origins) {
		return origin{}, false
	}
	return b.origins[tag-1], true
}

// --- chunk index -------------------------------------------------------------

// insertChunk adds c to the sorted index, evicting any stale released
// chunks that overlap its full footprint.
func (b *Backend) insertChunk(c *chunk) {
	lo := c.base
	hi := c.end() + redZone
	kept := b.chunks[:0]
	for _, old := range b.chunks {
		if old.released && old.base < hi && lo < old.end()+redZone {
			continue // region recycled by the allocator
		}
		kept = append(kept, old)
	}
	b.chunks = kept
	i := sort.Search(len(b.chunks), func(i int) bool { return b.chunks[i].user >= c.user })
	b.chunks = append(b.chunks, nil)
	copy(b.chunks[i+1:], b.chunks[i:])
	b.chunks[i] = c
}

// findByUser returns the chunk whose user address is exactly ptr.
func (b *Backend) findByUser(ptr uint64) *chunk {
	i := sort.Search(len(b.chunks), func(i int) bool { return b.chunks[i].user >= ptr })
	if i < len(b.chunks) && b.chunks[i].user == ptr && !b.chunks[i].released {
		return b.chunks[i]
	}
	return nil
}

// findContaining returns the chunk whose footprint (red zones and
// alignment padding included) contains addr. It runs a linear scan:
// it is only called to classify an access violation, which is rare,
// and chunk footprints are disjoint but variably padded, which defeats
// a simple binary search on user addresses.
func (b *Backend) findContaining(addr uint64) *chunk {
	for _, c := range b.chunks {
		if c.released {
			continue
		}
		if addr >= c.base && addr < c.end()+redZone {
			return c
		}
	}
	return nil
}

// --- allocation --------------------------------------------------------------

// Alloc implements prog.HeapBackend.
func (b *Backend) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	b.cycles += prog.CycAlloc * shadowCostFactor
	rz := redZone
	userSize := size
	if fn == heapsim.FnCalloc {
		userSize = n * size
	}

	var base, user uint64
	var err error
	aligned := false
	switch fn {
	case heapsim.FnMalloc, heapsim.FnCalloc, heapsim.FnRealloc:
		base, err = b.heap.Malloc(userSize + 2*rz)
		user = base + rz
	case heapsim.FnMemalign, heapsim.FnAlignedAlloc:
		aligned = true
		if align < rz {
			align = rz
		}
		pre := align
		for pre < rz {
			pre += align
		}
		base, err = b.heap.Memalign(align, userSize+pre+rz)
		user = base + pre
	default:
		return 0, fmt.Errorf("shadow: Alloc with unsupported function %v", fn)
	}
	if err != nil {
		return 0, fmt.Errorf("shadow: underlying allocation: %w", err)
	}

	org := b.newOrigin(fn, ccid)
	c := &chunk{
		base: base, user: user, size: userSize,
		fn: fn, ccid: ccid, originID: org, aligned: aligned,
	}
	b.insertChunk(c)

	// Leading red zone, payload, trailing red zone.
	b.markRange(base, user-base, false, 0, org)
	if fn == heapsim.FnCalloc {
		if err := b.space.RawMemset(user, 0, userSize); err != nil {
			return 0, fmt.Errorf("shadow: zeroing calloc payload: %w", err)
		}
		b.markRange(user, userSize, true, 0xFF, 0) // calloc: initialized
	} else {
		b.markRange(user, userSize, true, 0x00, org) // accessible, invalid
	}
	b.markRange(user+userSize, rz, false, 0, org)
	return user, nil
}

// Realloc implements prog.HeapBackend, following the paper's rules: a
// shrink marks the cut-off region inaccessible; a grow marks the added
// region accessible-but-invalid; and the buffer's allocation-time CCID
// is updated to the realloc call's context.
func (b *Backend) Realloc(ccid, ptr, size uint64) (uint64, error) {
	b.cycles += prog.CycAlloc * shadowCostFactor
	if ptr == 0 {
		return b.Alloc(heapsim.FnRealloc, ccid, 1, size, 0)
	}
	c := b.findByUser(ptr)
	if c == nil || c.freed {
		b.recordInvalidFree(ptr, ccid, "realloc of invalid pointer", c)
		// Keep the analysis running: treat as a fresh allocation.
		return b.Alloc(heapsim.FnRealloc, ccid, 1, size, 0)
	}
	rz := redZone

	// Preserve the old shadow for the surviving prefix.
	keep := c.size
	if size < keep {
		keep = size
	}
	oldV := make([]byte, keep)
	oldO := make([]uint32, keep)
	for i := uint64(0); i < keep; i++ {
		o, ok := b.off(c.user + i)
		if !ok {
			break
		}
		oldV[i] = b.vmask[o]
		oldO[i] = b.originT[o]
	}

	newBase, err := b.heap.Realloc(c.base, size+2*rz)
	if err != nil {
		return 0, fmt.Errorf("shadow: underlying realloc: %w", err)
	}

	// Retire the old identity; the realloc'd buffer gets a fresh CCID
	// and origin, per Section V.
	org := b.newOrigin(heapsim.FnRealloc, ccid)
	nc := &chunk{
		base: newBase, user: newBase + rz, size: size,
		fn: heapsim.FnRealloc, ccid: ccid, originID: org,
	}
	b.removeChunk(c)
	b.insertChunk(nc)

	b.markRange(newBase, rz, false, 0, org)
	b.markRange(nc.user, size, true, 0x00, org)
	for i := uint64(0); i < keep; i++ {
		o, ok := b.off(nc.user + i)
		if !ok {
			break
		}
		b.vmask[o] = oldV[i]
		b.originT[o] = oldO[i]
	}
	b.markRange(nc.user+size, rz, false, 0, org)
	return nc.user, nil
}

// removeChunk drops c from the index.
func (b *Backend) removeChunk(c *chunk) {
	for i, cc := range b.chunks {
		if cc == c {
			b.chunks = append(b.chunks[:i], b.chunks[i+1:]...)
			return
		}
	}
}

// Free implements prog.HeapBackend: the buffer is marked inaccessible
// and parked in the FIFO queue; reuse is deferred until quota eviction.
func (b *Backend) Free(ptr, ccid uint64) error {
	b.cycles += prog.CycFree * shadowCostFactor
	if ptr == 0 {
		return nil
	}
	c := b.findByUser(ptr)
	if c == nil {
		b.recordInvalidFree(ptr, ccid, "free of unallocated pointer", nil)
		return nil
	}
	if c.freed {
		b.recordInvalidFree(ptr, ccid, "double free", c)
		return nil
	}
	c.freed = true
	c.freeCCID = ccid
	// The whole footprint (red zones included) goes inaccessible.
	b.markRange(c.base, c.end()+redZone-c.base, false, 0, c.originID)

	if b.cfg.DeferFilter != nil && !b.cfg.DeferFilter(c.ccid) {
		// Outside this run's CCID subspace: release immediately, with
		// the region behaving like ordinary reusable memory (UAF on
		// this buffer goes undetected in this run, by design); a
		// partitioned replay with the complementary subspace catches
		// it.
		c.released = true
		if tel := b.cfg.Telemetry; tel != nil {
			tel.Inc(telemetry.CtrQuarantineRefusals)
			tel.Event(telemetry.EvQuarantineRefusal, c.ccid, c.user, c.size)
		}
		b.markRange(c.base, c.end()+redZone-c.base, true, 0xFF, 0)
		if err := b.heap.Free(c.base); err != nil {
			return fmt.Errorf("shadow: releasing filtered block: %w", err)
		}
		return nil
	}

	b.queue = append(b.queue, c)
	b.queueBytes += c.size
	for b.queueBytes > b.cfg.QueueQuota && len(b.queue) > 0 {
		old := b.queue[0]
		b.queue = b.queue[1:]
		b.queueBytes -= old.size
		old.released = true
		if tel := b.cfg.Telemetry; tel != nil {
			tel.Inc(telemetry.CtrQuarantineRefusals)
			tel.Event(telemetry.EvQuarantineRefusal, old.ccid, old.user, old.size)
		}
		if err := b.heap.Free(old.base); err != nil {
			return fmt.Errorf("shadow: releasing deferred block: %w", err)
		}
	}
	return nil
}

// shadowCostFactor models Memcheck-style slowdown in the virtual-cycle
// accounting.
const shadowCostFactor = 20
