// Package heapsim implements a C-style heap allocator over the simulated
// address space of package mem.
//
// HeapTherapy+'s online defense is explicitly allocator-agnostic: it
// interposes the allocation API and forwards real allocation work to the
// underlying libc allocator without depending on its internals
// (Section VI of the paper). To reproduce that separation in Go — where
// the runtime heap cannot be interposed — this package provides the
// "underlying allocator": a boundary-tag allocator with segregated free
// lists, chunk splitting and coalescing, in the style of dlmalloc. The
// defense layer in package defense wraps the Allocator interface exactly
// as the paper's shared library wraps malloc/free.
//
// Keeping a faithful free-list allocator (rather than a map of fake
// addresses) matters for fidelity: heap exploits depend on allocation
// adjacency (overflow corrupts the next chunk) and on reuse order
// (use-after-free requires the freed block to be handed back), and both
// behaviours emerge from this implementation.
package heapsim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"heaptherapy/internal/mem"
	"heaptherapy/internal/telemetry"
)

// AllocFn identifies the allocation API used to request a buffer. The
// paper's patches are keyed by {FUN, CCID}, where FUN is one of the
// allocation functions (Section V).
type AllocFn uint8

// Allocation API family.
const (
	// FnMalloc is malloc(size).
	FnMalloc AllocFn = iota + 1
	// FnCalloc is calloc(n, size).
	FnCalloc
	// FnRealloc is realloc(ptr, size).
	FnRealloc
	// FnMemalign is memalign(align, size).
	FnMemalign
	// FnAlignedAlloc is aligned_alloc(align, size).
	FnAlignedAlloc
)

func (f AllocFn) String() string {
	switch f {
	case FnMalloc:
		return "malloc"
	case FnCalloc:
		return "calloc"
	case FnRealloc:
		return "realloc"
	case FnMemalign:
		return "memalign"
	case FnAlignedAlloc:
		return "aligned_alloc"
	default:
		return fmt.Sprintf("AllocFn(%d)", uint8(f))
	}
}

// ParseAllocFn parses the textual name of an allocation function.
func ParseAllocFn(s string) (AllocFn, error) {
	switch s {
	case "malloc":
		return FnMalloc, nil
	case "calloc":
		return FnCalloc, nil
	case "realloc":
		return FnRealloc, nil
	case "memalign":
		return FnMemalign, nil
	case "aligned_alloc":
		return FnAlignedAlloc, nil
	default:
		return 0, fmt.Errorf("heapsim: unknown allocation function %q", s)
	}
}

// Allocator is the allocation API every layer of the system consumes:
// the raw heap, the shadow-memory analysis heap, and the online defended
// heap all implement it.
type Allocator interface {
	// Malloc allocates size bytes and returns the payload address.
	Malloc(size uint64) (uint64, error)
	// Calloc allocates n*size zeroed bytes.
	Calloc(n, size uint64) (uint64, error)
	// Realloc resizes the buffer at ptr to size bytes, moving it if
	// necessary. Realloc(0, size) behaves as Malloc(size).
	Realloc(ptr, size uint64) (uint64, error)
	// Memalign allocates size bytes aligned to align (a power of two).
	Memalign(align, size uint64) (uint64, error)
	// Free releases the buffer at ptr. Free(0) is a no-op.
	Free(ptr uint64) error
	// UsableSize reports the usable payload size of the buffer at ptr.
	UsableSize(ptr uint64) (uint64, error)
}

// Allocation errors.
var (
	// ErrOutOfMemory is returned when the arena cannot grow further.
	ErrOutOfMemory = fmt.Errorf("heapsim: out of memory: %w", mem.ErrLimit)
	// ErrInvalidPointer is returned for frees of addresses that are not
	// live allocations (including double frees).
	ErrInvalidPointer = errors.New("heapsim: invalid pointer")
	// ErrBadAlignment is returned for non-power-of-two alignments.
	ErrBadAlignment = errors.New("heapsim: alignment is not a power of two")
	// ErrBadSize is returned for oversized or overflowing requests.
	ErrBadSize = errors.New("heapsim: invalid allocation size")
)

// Chunk layout constants. A chunk is [header(8)][payload...]; free
// chunks additionally hold fd/bk list links in the first 16 payload
// bytes and a size footer in the last 8 bytes, dlmalloc style.
const (
	headerSize = 8
	// minChunk holds header + fd + bk + footer.
	minChunk = 32
	// chunkAlign keeps all chunk sizes 16-byte multiples so payloads
	// stay 16-aligned, matching glibc on 64-bit platforms.
	chunkAlign = 16

	flagInUse     = 1 << 0
	flagPrevInUse = 1 << 1
	flagMask      = chunkAlign - 1

	// maxRequest caps a single allocation; requests above it report
	// ErrBadSize before any arithmetic can overflow.
	maxRequest = 1 << 40
)

const (
	numSmallBins  = 64 // exact classes: 32, 48, ..., 32+16*63
	numLargeBins  = 32 // power-of-two ranges above smallBinMax
	smallBinMax   = minChunk + chunkAlign*(numSmallBins-1)
	largeBinShift = 10 // first large bin covers [1040, 2048)
)

// Stats reports allocator activity and footprint.
type Stats struct {
	// Mallocs counts Malloc calls.
	Mallocs uint64
	// Callocs counts Calloc calls.
	Callocs uint64
	// Reallocs counts Realloc calls.
	Reallocs uint64
	// Memaligns counts Memalign/AlignedAlloc calls.
	Memaligns uint64
	// Frees counts Free calls on live pointers.
	Frees uint64
	// InUseBytes is the total payload bytes currently allocated.
	InUseBytes uint64
	// InUseChunks is the number of live allocations.
	InUseChunks uint64
	// PeakInUseBytes is the high-water mark of InUseBytes.
	PeakInUseBytes uint64
	// ArenaBytes is the total arena size obtained from the space.
	ArenaBytes uint64
	// FreeBytes is the total bytes held in free lists (excluding top).
	FreeBytes uint64
	// Splits counts chunk splits.
	Splits uint64
	// Coalesces counts chunk merges.
	Coalesces uint64
}

// Heap is the boundary-tag allocator. It implements Allocator.
type Heap struct {
	space *mem.Space

	arenaStart uint64 // first byte of the arena
	top        uint64 // start of the wilderness chunk
	arenaEnd   uint64 // one past the last arena byte

	smallBins [numSmallBins]uint64 // heads of exact-size lists
	largeBins [numLargeBins]uint64 // heads of ranged, size-sorted lists

	// smallMap and largeMap hold one bit per bin, set exactly when that
	// bin's head is non-zero (glibc's binmap), so allocChunk finds the
	// next non-empty bin with one count of trailing zeros.
	smallMap uint64
	largeMap uint32

	// live has one bit per 16-byte granule from arenaStart, set when a
	// live payload starts there. Payloads are 16-aligned and a chunk
	// sits headerSize below its payload, so the bit is all a pointer
	// check needs. Stats.InUseChunks is the number of set bits.
	live []uint64

	// checkFree is CheckIntegrity's set of binned chunks, cleared on
	// entry, so a warm audit allocates nothing. It is per heap because
	// the campaign's workers audit their own heaps concurrently.
	checkFree map[uint64]bool

	stats Stats

	// tel, when non-nil, counts chunk grants and releases
	// (telemetry.CtrAllocs/CtrFrees) and observes allocation sizes.
	tel *telemetry.Scope
}

var _ Allocator = (*Heap)(nil)

// New creates a heap arena at the current break of space.
func New(space *mem.Space) (*Heap, error) {
	start, err := space.Sbrk(mem.PageSize)
	if err != nil {
		return nil, fmt.Errorf("heapsim: reserving arena: %w", err)
	}
	h := &Heap{
		space:      space,
		arenaStart: start,
		// Chunks start at ≡8 (mod 16) so payloads are 16-aligned.
		top:       start + headerSize,
		arenaEnd:  start + mem.PageSize,
		checkFree: make(map[uint64]bool),
	}
	h.stats.ArenaBytes = mem.PageSize
	h.growLive()
	return h, nil
}

// Space returns the address space backing this heap.
func (h *Heap) Space() *mem.Space { return h.space }

// Reset re-initializes the heap over its space after the space itself
// has been Reset (or is otherwise back at the break where this heap's
// arena began): the arena page is re-reserved and all allocator state
// — bins and their bitmaps, the live bitmap, statistics — is cleared.
// The live bitmap keeps its backing array, so a steady-state reset
// allocates nothing. Pointers from before the Reset are invalid.
func (h *Heap) Reset() error {
	start, err := h.space.Sbrk(mem.PageSize)
	if err != nil {
		return fmt.Errorf("heapsim: re-reserving arena: %w", err)
	}
	h.arenaStart = start
	h.top = start + headerSize
	h.arenaEnd = start + mem.PageSize
	h.smallBins = [numSmallBins]uint64{}
	h.largeBins = [numLargeBins]uint64{}
	h.smallMap, h.largeMap = 0, 0
	h.live = h.live[:0]
	h.growLive()
	h.stats = Stats{ArenaBytes: mem.PageSize}
	return nil
}

// Stats returns a snapshot of allocator statistics.
func (h *Heap) Stats() Stats { return h.stats }

// SetTelemetry attaches a telemetry scope; nil detaches.
func (h *Heap) SetTelemetry(tel *telemetry.Scope) { h.tel = tel }

// --- chunk header helpers -------------------------------------------------

// Metadata loads try BackedLoad64 first: it inlines, and RawLoad64,
// whose miss path may back the space's reserve, does not.
func (h *Heap) header(c uint64) uint64 {
	if v, ok := h.space.BackedLoad64(c); ok {
		return v
	}
	v, err := h.space.RawLoad64(c)
	if err != nil {
		// The allocator only dereferences chunk addresses it created;
		// an unmapped one indicates internal corruption.
		panic(fmt.Sprintf("heapsim: corrupt chunk address %#x: %v", c, err))
	}
	return v
}

func (h *Heap) setHeader(c, v uint64) {
	if err := h.space.RawStore64(c, v); err != nil {
		panic(fmt.Sprintf("heapsim: corrupt chunk address %#x: %v", c, err))
	}
}

func (h *Heap) chunkSize(c uint64) uint64  { return h.header(c) &^ uint64(flagMask) }
func (h *Heap) inUse(c uint64) bool        { return h.header(c)&flagInUse != 0 }
func (h *Heap) prevInUse(c uint64) bool    { return h.header(c)&flagPrevInUse != 0 }
func payload(c uint64) uint64              { return c + headerSize }
func chunkOf(p uint64) uint64              { return p - headerSize }
func (h *Heap) footerAddr(c uint64) uint64 { return c + h.chunkSize(c) - 8 }

func (h *Heap) setSizeFlags(c, size uint64, inUse, prevInUse bool) {
	v := size
	if inUse {
		v |= flagInUse
	}
	if prevInUse {
		v |= flagPrevInUse
	}
	h.setHeader(c, v)
}

func (h *Heap) setFooter(c uint64) {
	if err := h.space.RawStore64(h.footerAddr(c), h.chunkSize(c)); err != nil {
		panic(fmt.Sprintf("heapsim: footer store at %#x: %v", h.footerAddr(c), err))
	}
}

func (h *Heap) prevChunk(c uint64) uint64 {
	if prevSize, ok := h.space.BackedLoad64(c - 8); ok {
		return c - prevSize
	}
	prevSize, err := h.space.RawLoad64(c - 8)
	if err != nil {
		panic(fmt.Sprintf("heapsim: prev footer load at %#x: %v", c-8, err))
	}
	return c - prevSize
}

func (h *Heap) setPrevInUseOf(c uint64, prevInUse bool) {
	v := h.header(c)
	if prevInUse {
		v |= flagPrevInUse
	} else {
		v &^= uint64(flagPrevInUse)
	}
	h.setHeader(c, v)
}

// --- free list management -------------------------------------------------

// fd/bk links live in the free chunk's payload.
func (h *Heap) fd(c uint64) uint64 { return h.mustLoad(c + 8) }
func (h *Heap) bk(c uint64) uint64 { return h.mustLoad(c + 16) }

func (h *Heap) setFd(c, v uint64) { h.mustStore(c+8, v) }
func (h *Heap) setBk(c, v uint64) { h.mustStore(c+16, v) }

func (h *Heap) mustLoad(addr uint64) uint64 {
	if v, ok := h.space.BackedLoad64(addr); ok {
		return v
	}
	v, err := h.space.RawLoad64(addr)
	if err != nil {
		panic(fmt.Sprintf("heapsim: free-list load at %#x: %v", addr, err))
	}
	return v
}

func (h *Heap) mustStore(addr, v uint64) {
	if err := h.space.RawStore64(addr, v); err != nil {
		panic(fmt.Sprintf("heapsim: free-list store at %#x: %v", addr, err))
	}
}

// binIndex maps a chunk size to (small, index).
func binIndex(size uint64) (small bool, idx int) {
	if size <= smallBinMax {
		return true, int((size - minChunk) / chunkAlign)
	}
	// Large bins: one per power-of-two band.
	idx = 0
	s := size >> largeBinShift
	for s > 1 && idx < numLargeBins-1 {
		s >>= 1
		idx++
	}
	return false, idx
}

func (h *Heap) binHead(small bool, idx int) uint64 {
	if small {
		return h.smallBins[idx]
	}
	return h.largeBins[idx]
}

// setBinHead is the only writer of bin heads, so it keeps each bin's
// bitmap bit equal to head != 0.
func (h *Heap) setBinHead(small bool, idx int, c uint64) {
	if small {
		h.smallBins[idx] = c
		if c != 0 {
			h.smallMap |= 1 << idx
		} else {
			h.smallMap &^= 1 << idx
		}
		return
	}
	h.largeBins[idx] = c
	if c != 0 {
		h.largeMap |= 1 << idx
	} else {
		h.largeMap &^= 1 << idx
	}
}

// insertFree links a free chunk into its bin. Large bins are kept sorted
// ascending by size so first-fit is best-fit within the bin.
func (h *Heap) insertFree(c uint64) {
	size := h.chunkSize(c)
	h.stats.FreeBytes += size
	small, idx := binIndex(size)
	head := h.binHead(small, idx)
	if small || head == 0 {
		// LIFO push. LIFO reuse order is what makes use-after-free
		// exploitation easy on real allocators, so it is preserved here.
		h.setFd(c, head)
		h.setBk(c, 0)
		if head != 0 {
			h.setBk(head, c)
		}
		h.setBinHead(small, idx, c)
		return
	}
	// Sorted insert for large bins.
	var prev uint64
	cur := head
	for cur != 0 && h.chunkSize(cur) < size {
		prev = cur
		cur = h.fd(cur)
	}
	h.setFd(c, cur)
	h.setBk(c, prev)
	if cur != 0 {
		h.setBk(cur, c)
	}
	if prev == 0 {
		h.setBinHead(small, idx, c)
	} else {
		h.setFd(prev, c)
	}
}

// removeFree unlinks a free chunk from its bin.
func (h *Heap) removeFree(c uint64) {
	size := h.chunkSize(c)
	h.stats.FreeBytes -= size
	small, idx := binIndex(size)
	fd, bk := h.fd(c), h.bk(c)
	if bk == 0 {
		h.setBinHead(small, idx, fd)
	} else {
		h.setFd(bk, fd)
	}
	if fd != 0 {
		h.setBk(fd, bk)
	}
}

// --- allocation -----------------------------------------------------------

// chunkSizeFor converts a user request into a chunk size.
func chunkSizeFor(req uint64) (uint64, error) {
	if req > maxRequest {
		return 0, fmt.Errorf("%w: %d", ErrBadSize, req)
	}
	size := req + headerSize
	if size < minChunk {
		size = minChunk
	}
	size = (size + chunkAlign - 1) &^ uint64(chunkAlign-1)
	return size, nil
}

// Malloc implements Allocator.
func (h *Heap) Malloc(size uint64) (uint64, error) {
	c, err := h.allocChunk(size)
	if err != nil {
		return 0, err
	}
	h.stats.Mallocs++
	return h.finishAlloc(c), nil
}

// finishAlloc registers a freshly carved in-use chunk and returns its
// payload address.
func (h *Heap) finishAlloc(c uint64) uint64 {
	p := payload(c)
	w, bit, _ := h.liveBit(p)
	h.live[w] |= bit
	userBytes := h.chunkSize(c) - headerSize
	if h.tel != nil {
		h.tel.Inc(telemetry.CtrAllocs)
		h.tel.Observe(telemetry.HistAllocSize, userBytes)
	}
	h.stats.InUseBytes += userBytes
	h.stats.InUseChunks++
	if h.stats.InUseBytes > h.stats.PeakInUseBytes {
		h.stats.PeakInUseBytes = h.stats.InUseBytes
	}
	return p
}

// allocChunk finds or carves an in-use chunk whose payload fits size
// bytes. The returned chunk has its header fully set.
func (h *Heap) allocChunk(size uint64) (uint64, error) {
	need, err := chunkSizeFor(size)
	if err != nil {
		return 0, err
	}

	small, idx := binIndex(need)
	if small {
		// Exact small bin.
		if c := h.smallBins[idx]; c != 0 && h.chunkSize(c) == need {
			h.removeFree(c)
			h.markInUse(c)
			return c, nil
		}
		// The lowest non-empty small bin above idx holds a fit.
		if m := h.smallMap &^ (uint64(2)<<idx - 1); m != 0 {
			c := h.smallBins[bits.TrailingZeros64(m)]
			h.removeFree(c)
			return h.splitAndUse(c, need), nil
		}
		idx = 0 // every large chunk fits a small request
	}
	// Non-empty large bins from idx up, in order; the first holding a
	// chunk of at least need bytes wins.
	for m := h.largeMap >> idx << idx; m != 0; m &= m - 1 {
		if c := h.firstFitLarge(bits.TrailingZeros32(m), need); c != 0 {
			h.removeFree(c)
			return h.splitAndUse(c, need), nil
		}
	}

	// Fall back to the top (wilderness) chunk.
	return h.allocFromTop(need)
}

// firstFitLarge returns the first chunk in large bin i of at least need
// bytes, or 0. Large bins are sorted ascending, so this is best fit.
func (h *Heap) firstFitLarge(i int, need uint64) uint64 {
	for c := h.largeBins[i]; c != 0; c = h.fd(c) {
		if h.chunkSize(c) >= need {
			return c
		}
	}
	return 0
}

// markInUse flags chunk c as allocated and updates its successor.
func (h *Heap) markInUse(c uint64) {
	size := h.chunkSize(c)
	h.setSizeFlags(c, size, true, h.prevInUse(c))
	if next := c + size; next < h.top {
		h.setPrevInUseOf(next, true)
	}
}

// splitAndUse carves `need` bytes from free chunk c, returning the
// now-in-use chunk and freeing any viable remainder.
func (h *Heap) splitAndUse(c, need uint64) uint64 {
	size := h.chunkSize(c)
	if size >= need+minChunk {
		h.stats.Splits++
		rem := c + need
		h.setSizeFlags(c, need, true, h.prevInUse(c))
		h.setSizeFlags(rem, size-need, false, true)
		h.setFooter(rem)
		if next := rem + (size - need); next < h.top {
			h.setPrevInUseOf(next, false)
		}
		h.insertFree(rem)
		return c
	}
	h.markInUse(c)
	return c
}

// growArena extends the arena until at least need bytes plus one
// header lie between top and the arena end; the header's room keeps the
// top chunk start addressable. Past New and Reset, it is the only place
// the arena and the live bitmap grow.
func (h *Heap) growArena(need uint64) error {
	for avail := h.arenaEnd - h.top; avail < need+headerSize; avail = h.arenaEnd - h.top {
		grow := need + headerSize - avail
		got, err := h.space.Sbrk(grow)
		if err != nil {
			return fmt.Errorf("%w: arena limit reached growing by %d", ErrOutOfMemory, grow)
		}
		if got != h.arenaEnd {
			// Another segment (e.g. a table mapping) claimed the break;
			// the arena must stay contiguous.
			return fmt.Errorf("heapsim: arena discontiguous: sbrk returned %#x, want %#x", got, h.arenaEnd)
		}
		grown := mem.PageAlignUp(grow)
		h.arenaEnd += grown
		h.stats.ArenaBytes += grown
		h.growLive()
	}
	return nil
}

// growLive extends the live bitmap with zero words to cover the arena,
// reusing the backing array's capacity when it suffices.
func (h *Heap) growLive() {
	n := len(h.live)
	words := int((h.arenaEnd - h.arenaStart) / (chunkAlign * 64))
	h.live = slices.Grow(h.live, words-n)[:words]
	clear(h.live[n:])
}

// liveBit locates payload p's bit in the live bitmap. ok is false when
// p cannot be a payload at all: outside the arena or not 16-aligned.
func (h *Heap) liveBit(p uint64) (w int, bit uint64, ok bool) {
	off := p - h.arenaStart
	if p < h.arenaStart || p >= h.arenaEnd || off%chunkAlign != 0 {
		return 0, 0, false
	}
	g := off / chunkAlign
	return int(g / 64), 1 << (g % 64), true
}

// allocFromTop carves from the wilderness, growing the arena on demand.
func (h *Heap) allocFromTop(need uint64) (uint64, error) {
	if err := h.growArena(need); err != nil {
		return 0, err
	}
	c := h.top
	prevInUse := true // invariant: the chunk below top is never free
	h.setSizeFlags(c, need, true, prevInUse)
	h.top = c + need
	return c, nil
}

// Calloc implements Allocator.
func (h *Heap) Calloc(n, size uint64) (uint64, error) {
	if size != 0 && n > maxRequest/size {
		return 0, fmt.Errorf("%w: calloc(%d, %d) overflows", ErrBadSize, n, size)
	}
	total := n * size
	c, err := h.allocChunk(total)
	if err != nil {
		return 0, err
	}
	h.stats.Callocs++
	p := h.finishAlloc(c)
	if err := h.space.RawMemset(p, 0, total); err != nil {
		return 0, fmt.Errorf("heapsim: zeroing calloc payload: %w", err)
	}
	return p, nil
}

// Memalign implements Allocator.
func (h *Heap) Memalign(align, size uint64) (uint64, error) {
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadAlignment, align)
	}
	h.stats.Memaligns++
	if align <= chunkAlign {
		// Natural alignment already satisfies the request.
		c, err := h.allocChunk(size)
		if err != nil {
			return 0, err
		}
		return h.finishAlloc(c), nil
	}
	// Over-allocate, then carve an aligned chunk out of the middle.
	c, err := h.allocChunk(size + align + minChunk)
	if err != nil {
		return 0, err
	}
	p := payload(c)
	if p%align == 0 {
		return h.finishAlloc(c), nil
	}
	alignedP := (p + align - 1) &^ (align - 1)
	if alignedP-p < minChunk {
		alignedP += align
	}
	alignedC := chunkOf(alignedP)
	chunkEnd := c + h.chunkSize(c)
	// Shrink the original chunk into a free prefix, coalescing backward
	// if the neighbor below is already free.
	if !h.prevInUse(c) {
		prev := h.prevChunk(c)
		h.stats.Coalesces++
		h.removeFree(prev)
		c = prev
	}
	h.setSizeFlags(c, alignedC-c, false, true)
	h.setFooter(c)
	h.setSizeFlags(alignedC, chunkEnd-alignedC, true, false)
	h.insertFree(c)
	// Trim the tail if oversized.
	need, err := chunkSizeFor(size)
	if err != nil {
		return 0, err
	}
	h.trimTail(alignedC, need)
	return h.finishAlloc(alignedC), nil
}

// trimTail splits an in-use chunk down to need bytes, freeing the rest.
func (h *Heap) trimTail(c, need uint64) {
	size := h.chunkSize(c)
	if size < need+minChunk {
		return
	}
	h.stats.Splits++
	rem := c + need
	remSize := size - need
	h.setSizeFlags(c, need, true, h.prevInUse(c))
	next := rem + remSize
	if next == h.top {
		// Merge the remainder straight into the wilderness.
		h.top = rem
		h.stats.Splits-- // not an observable split
		return
	}
	// Coalesce forward so the remainder never sits next to a free chunk.
	if !h.inUse(next) {
		h.stats.Coalesces++
		h.removeFree(next)
		remSize += h.chunkSize(next)
		if rem+remSize == h.top {
			h.top = rem
			return
		}
	}
	h.setSizeFlags(rem, remSize, false, true)
	h.setFooter(rem)
	h.setPrevInUseOf(rem+remSize, false)
	h.insertFree(rem)
}

// Realloc implements Allocator.
func (h *Heap) Realloc(ptr, size uint64) (uint64, error) {
	if ptr == 0 {
		return h.Malloc(size)
	}
	if !h.IsLive(ptr) {
		return 0, fmt.Errorf("%w: realloc of %#x", ErrInvalidPointer, ptr)
	}
	c := chunkOf(ptr)
	h.stats.Reallocs++
	oldUser := h.chunkSize(c) - headerSize
	need, err := chunkSizeFor(size)
	if err != nil {
		return 0, err
	}
	cur := h.chunkSize(c)
	switch {
	case need <= cur:
		// Shrink in place.
		h.stats.InUseBytes -= oldUser
		h.trimTail(c, need)
		h.stats.InUseBytes += h.chunkSize(c) - headerSize
		return ptr, nil
	case c+cur == h.top:
		// Expand into the wilderness.
		if err := h.growArena(need - cur); err != nil {
			return 0, err
		}
		h.setSizeFlags(c, need, true, h.prevInUse(c))
		h.top = c + need
		h.stats.InUseBytes += (need - cur)
		if h.stats.InUseBytes > h.stats.PeakInUseBytes {
			h.stats.PeakInUseBytes = h.stats.InUseBytes
		}
		return ptr, nil
	default:
		next := c + cur
		if next < h.top && !h.inUse(next) && cur+h.chunkSize(next) >= need {
			// Absorb the free neighbor.
			h.stats.Coalesces++
			h.removeFree(next)
			merged := cur + h.chunkSize(next)
			h.setSizeFlags(c, merged, true, h.prevInUse(c))
			if n2 := c + merged; n2 < h.top {
				h.setPrevInUseOf(n2, true)
			}
			h.stats.InUseBytes -= oldUser
			h.trimTail(c, need)
			h.stats.InUseBytes += h.chunkSize(c) - headerSize
			if h.stats.InUseBytes > h.stats.PeakInUseBytes {
				h.stats.PeakInUseBytes = h.stats.InUseBytes
			}
			return ptr, nil
		}
		// Move: allocate, copy, free.
		nc, err := h.allocChunk(size)
		if err != nil {
			return 0, err
		}
		newP := h.finishAlloc(nc)
		copyLen := oldUser
		if size < copyLen {
			copyLen = size
		}
		if err := h.space.RawMemmove(newP, ptr, copyLen); err != nil {
			return 0, fmt.Errorf("heapsim: realloc copy: %w", err)
		}
		if err := h.release(ptr); err != nil {
			return 0, fmt.Errorf("heapsim: realloc free: %w", err)
		}
		return newP, nil
	}
}

// Free implements Allocator: a counted release.
func (h *Heap) Free(ptr uint64) error {
	if ptr == 0 {
		return nil
	}
	if err := h.release(ptr); err != nil {
		return err
	}
	h.stats.Frees++
	return nil
}

// release is Free uncounted, for a moving Realloc's old chunk.
func (h *Heap) release(ptr uint64) error {
	w, bit, ok := h.liveBit(ptr)
	if !ok || h.live[w]&bit == 0 {
		return fmt.Errorf("%w: free of %#x", ErrInvalidPointer, ptr)
	}
	h.live[w] &^= bit
	c := chunkOf(ptr)
	if h.tel != nil {
		h.tel.Inc(telemetry.CtrFrees)
	}
	h.stats.InUseBytes -= h.chunkSize(c) - headerSize
	h.stats.InUseChunks--

	size := h.chunkSize(c)

	// Coalesce backward.
	if !h.prevInUse(c) {
		prev := h.prevChunk(c)
		h.stats.Coalesces++
		h.removeFree(prev)
		size += h.chunkSize(prev)
		c = prev
	}
	// Coalesce forward, or merge into top.
	next := c + size
	if next == h.top {
		h.top = c
		// The chunk below the new top must be in-use (invariant), so no
		// footer bookkeeping is needed.
		return nil
	}
	if next < h.top && !h.inUse(next) {
		h.stats.Coalesces++
		h.removeFree(next)
		size += h.chunkSize(next)
		if c+size == h.top {
			h.top = c
			return nil
		}
	}
	h.setSizeFlags(c, size, false, true)
	h.setFooter(c)
	h.setPrevInUseOf(c+size, false)
	h.insertFree(c)
	return nil
}

// UsableSize implements Allocator.
func (h *Heap) UsableSize(ptr uint64) (uint64, error) {
	if !h.IsLive(ptr) {
		return 0, fmt.Errorf("%w: usable_size of %#x", ErrInvalidPointer, ptr)
	}
	return h.chunkSize(chunkOf(ptr)) - headerSize, nil
}

// IsLive reports whether ptr is a live allocation payload.
func (h *Heap) IsLive(ptr uint64) bool {
	w, bit, ok := h.liveBit(ptr)
	return ok && h.live[w]&bit != 0
}

// LiveCount returns the number of live allocations.
func (h *Heap) LiveCount() int { return int(h.stats.InUseChunks) }

// CheckIntegrity walks the whole arena validating chunk invariants:
// sizes aligned, headers/footers consistent, no two adjacent free
// chunks, free-list membership matching header flags, each bin's bitmap
// bit matching its head, and the live bitmap holding exactly the in-use
// chunks. It is used by tests, by property-based fuzzing of allocation
// sequences and by the campaign invariant walker; once warm it
// allocates nothing.
func (h *Heap) CheckIntegrity() error {
	free := h.checkFree
	clear(free)
	for i := 0; i < numSmallBins; i++ {
		if set := h.smallMap>>i&1 != 0; set != (h.smallBins[i] != 0) {
			return fmt.Errorf("heapsim: small bin %d bitmap bit %v, head %#x", i, set, h.smallBins[i])
		}
		if err := h.walkBin(h.smallBins[i], free); err != nil {
			return err
		}
	}
	for i := 0; i < numLargeBins; i++ {
		if set := h.largeMap>>i&1 != 0; set != (h.largeBins[i] != 0) {
			return fmt.Errorf("heapsim: large bin %d bitmap bit %v, head %#x", i, set, h.largeBins[i])
		}
		if err := h.walkBin(h.largeBins[i], free); err != nil {
			return err
		}
	}

	c := h.arenaStart + headerSize
	prevFree := false
	prevInUse := true
	inUse := 0
	for c < h.top {
		size := h.chunkSize(c)
		if size < minChunk || size%chunkAlign != 0 {
			return fmt.Errorf("heapsim: chunk %#x has bad size %d", c, size)
		}
		if h.prevInUse(c) != prevInUse {
			return fmt.Errorf("heapsim: chunk %#x prev-in-use flag %v, want %v", c, h.prevInUse(c), prevInUse)
		}
		if h.inUse(c) {
			if !h.IsLive(payload(c)) {
				return fmt.Errorf("heapsim: in-use chunk %#x not in live table", c)
			}
			inUse++
			prevFree = false
		} else {
			if prevFree {
				return fmt.Errorf("heapsim: adjacent free chunks at %#x", c)
			}
			if !free[c] {
				return fmt.Errorf("heapsim: free chunk %#x not in any bin", c)
			}
			footer := h.mustLoad(h.footerAddr(c))
			if footer != size {
				return fmt.Errorf("heapsim: chunk %#x footer %d != size %d", c, footer, size)
			}
			prevFree = true
		}
		prevInUse = h.inUse(c)
		c += size
	}
	if c != h.top {
		return fmt.Errorf("heapsim: arena walk ended at %#x, want top %#x", c, h.top)
	}
	if prevFree {
		return errors.New("heapsim: free chunk adjacent to top (should have merged)")
	}
	// The walk found every in-use chunk live; the counts close the other
	// direction, so a stale live bit for a freed or merged chunk shows.
	set := 0
	for _, w := range h.live {
		set += bits.OnesCount64(w)
	}
	if live := h.LiveCount(); inUse != live || set != live {
		return fmt.Errorf("heapsim: %d in-use chunks, %d live bits, live count %d", inUse, set, live)
	}
	return nil
}

func (h *Heap) walkBin(head uint64, free map[uint64]bool) error {
	prev := uint64(0)
	for c := head; c != 0; c = h.fd(c) {
		if h.inUse(c) {
			return fmt.Errorf("heapsim: in-use chunk %#x on free list", c)
		}
		if free[c] {
			return fmt.Errorf("heapsim: chunk %#x on free list twice", c)
		}
		if h.bk(c) != prev {
			return fmt.Errorf("heapsim: chunk %#x bk link %#x, want %#x", c, h.bk(c), prev)
		}
		free[c] = true
		prev = c
	}
	return nil
}
