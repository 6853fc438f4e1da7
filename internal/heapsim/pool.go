package heapsim

import (
	"fmt"

	"heaptherapy/internal/mem"
	"heaptherapy/internal/telemetry"
)

// PoolAllocator is a second, structurally different allocator: a
// slab-style segregated-pool design (fixed-size classes carved from
// page runs, per-class FIFO free lists, dedicated runs for large
// blocks). It exists to demonstrate the paper's property (5): the
// online defense is transparent to the underlying allocator, so the
// identical defense layer must work over this allocator exactly as it
// does over the boundary-tag Heap — locked in by tests that run the
// whole corpus pipeline over both.
//
// Reuse order is FIFO per class (glibc's tcache is LIFO, many pool
// allocators are FIFO), which also exercises the defense against a
// different use-after-free reuse discipline.
type PoolAllocator struct {
	space *mem.Space

	// freeLists[i] serves blocks of size poolClassSizes[i].
	freeLists [][]uint64 // FIFO queues of free block addresses
	live      map[uint64]poolBlock

	stats Stats

	// tel mirrors Heap.tel: physical block grants and releases plus the
	// allocation-size histogram.
	tel *telemetry.Scope

	// arenaLo is the start of the pool's first run since construction
	// or Reset (0 before any): every block lies in [arenaLo, break).
	arenaLo uint64

	// checkOcc and checkBlocks are CheckIntegrity's scratch, cleared on
	// entry, so a warm audit allocates nothing. They are per allocator
	// because the campaign's workers audit their own pools concurrently.
	checkOcc    granuleMap
	checkBlocks []poolInterval
}

// poolBlock records a live allocation.
type poolBlock struct {
	base  uint64 // block start handed out by the pool
	class int    // -1 for large dedicated runs
	size  uint64 // block capacity
}

var _ Allocator = (*PoolAllocator)(nil)

// poolClassSizes are the slab classes; larger requests get dedicated
// page runs.
var poolClassSizes = []uint64{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

// NewPool creates a pool allocator on space.
func NewPool(space *mem.Space) (*PoolAllocator, error) {
	return &PoolAllocator{
		space:     space,
		freeLists: make([][]uint64, len(poolClassSizes)),
		live:      make(map[uint64]poolBlock),
	}, nil
}

// Space returns the backing address space.
func (p *PoolAllocator) Space() *mem.Space { return p.space }

// Reset clears all pool state after the backing space has been Reset:
// every carved run is gone with the space, so the free lists are
// emptied (keeping their capacity) and the live table and statistics
// are cleared. Like Heap.Reset, the steady-state path allocates
// nothing.
func (p *PoolAllocator) Reset() {
	for i := range p.freeLists {
		p.freeLists[i] = p.freeLists[i][:0]
	}
	clear(p.live)
	p.stats = Stats{}
	p.arenaLo = 0
}

// Stats returns a snapshot of allocator statistics.
func (p *PoolAllocator) Stats() Stats { return p.stats }

// SetTelemetry attaches a telemetry scope; nil detaches.
func (p *PoolAllocator) SetTelemetry(tel *telemetry.Scope) { p.tel = tel }

// classFor returns the class index for a size, or -1 for large.
func classFor(size uint64) int {
	for i, c := range poolClassSizes {
		if size <= c {
			return i
		}
	}
	return -1
}

// sbrk maps a run of n bytes for the pool, noting the first run's
// start as the arena's low end.
func (p *PoolAllocator) sbrk(n uint64) (uint64, error) {
	base, err := p.space.Sbrk(n)
	if err == nil && p.arenaLo == 0 {
		p.arenaLo = base
	}
	return base, err
}

// carve refills a class's free list with one page run of blocks.
func (p *PoolAllocator) carve(class int) error {
	bs := poolClassSizes[class]
	run := mem.PageAlignUp(bs * 16)
	base, err := p.sbrk(run)
	if err != nil {
		return fmt.Errorf("%w: pool carve: %v", ErrOutOfMemory, err)
	}
	p.stats.ArenaBytes += run
	for off := uint64(0); off+bs <= run; off += bs {
		p.freeLists[class] = append(p.freeLists[class], base+off)
		p.stats.FreeBytes += bs
	}
	return nil
}

// alloc grabs a block of at least size bytes.
func (p *PoolAllocator) alloc(size uint64) (uint64, error) {
	if size > maxRequest {
		return 0, fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	if size == 0 {
		size = 1
	}
	class := classFor(size)
	if class < 0 {
		run := mem.PageAlignUp(size)
		base, err := p.sbrk(run)
		if err != nil {
			return 0, fmt.Errorf("%w: pool large alloc: %v", ErrOutOfMemory, err)
		}
		p.stats.ArenaBytes += run
		p.live[base] = poolBlock{base: base, class: -1, size: run}
		p.bump(run)
		return base, nil
	}
	if len(p.freeLists[class]) == 0 {
		if err := p.carve(class); err != nil {
			return 0, err
		}
	}
	// FIFO: pop from the front.
	base := p.freeLists[class][0]
	p.freeLists[class] = p.freeLists[class][1:]
	bs := poolClassSizes[class]
	p.stats.FreeBytes -= bs
	p.live[base] = poolBlock{base: base, class: class, size: bs}
	p.bump(bs)
	return base, nil
}

func (p *PoolAllocator) bump(userBytes uint64) {
	if p.tel != nil {
		p.tel.Inc(telemetry.CtrAllocs)
		p.tel.Observe(telemetry.HistAllocSize, userBytes)
	}
	p.stats.InUseBytes += userBytes
	p.stats.InUseChunks++
	if p.stats.InUseBytes > p.stats.PeakInUseBytes {
		p.stats.PeakInUseBytes = p.stats.InUseBytes
	}
}

// Malloc implements Allocator.
func (p *PoolAllocator) Malloc(size uint64) (uint64, error) {
	p.stats.Mallocs++
	return p.alloc(size)
}

// Calloc implements Allocator.
func (p *PoolAllocator) Calloc(n, size uint64) (uint64, error) {
	if size != 0 && n > maxRequest/size {
		return 0, fmt.Errorf("%w: calloc(%d, %d)", ErrBadSize, n, size)
	}
	p.stats.Callocs++
	total := n * size
	addr, err := p.alloc(total)
	if err != nil {
		return 0, err
	}
	if err := p.space.RawMemset(addr, 0, total); err != nil {
		return 0, fmt.Errorf("heapsim: pool calloc zeroing: %w", err)
	}
	return addr, nil
}

// Memalign implements Allocator. Blocks are class-size aligned only by
// accident, so over-allocate and hand out an aligned address inside
// the block, remembering the mapping for Free.
func (p *PoolAllocator) Memalign(align, size uint64) (uint64, error) {
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadAlignment, align)
	}
	p.stats.Memaligns++
	base, err := p.alloc(size + align)
	if err != nil {
		return 0, err
	}
	aligned := (base + align - 1) &^ (align - 1)
	if aligned != base {
		blk := p.live[base]
		delete(p.live, base)
		p.live[aligned] = blk
	}
	return aligned, nil
}

// Realloc implements Allocator.
func (p *PoolAllocator) Realloc(ptr, size uint64) (uint64, error) {
	if ptr == 0 {
		return p.Malloc(size)
	}
	blk, ok := p.live[ptr]
	if !ok {
		return 0, fmt.Errorf("%w: pool realloc of %#x", ErrInvalidPointer, ptr)
	}
	p.stats.Reallocs++
	avail := blk.size - (ptr - blk.base)
	if size <= avail {
		return ptr, nil // fits in place
	}
	newPtr, err := p.alloc(size)
	if err != nil {
		return 0, err
	}
	if err := p.space.RawMemmove(newPtr, ptr, avail); err != nil {
		return 0, fmt.Errorf("heapsim: pool realloc copy: %w", err)
	}
	if err := p.Free(ptr); err != nil {
		return 0, err
	}
	p.stats.Frees--
	return newPtr, nil
}

// Free implements Allocator.
func (p *PoolAllocator) Free(ptr uint64) error {
	if ptr == 0 {
		return nil
	}
	blk, ok := p.live[ptr]
	if !ok {
		return fmt.Errorf("%w: pool free of %#x", ErrInvalidPointer, ptr)
	}
	delete(p.live, ptr)
	if p.tel != nil {
		p.tel.Inc(telemetry.CtrFrees)
	}
	p.stats.Frees++
	p.stats.InUseBytes -= blk.size
	p.stats.InUseChunks--
	if blk.class >= 0 {
		// FIFO: push to the back.
		p.freeLists[blk.class] = append(p.freeLists[blk.class], blk.base)
		p.stats.FreeBytes += blk.size
	}
	// Large runs are returned to the space conceptually; the simulated
	// break cannot shrink, so they are simply dropped (matching munmap
	// of a dedicated mapping, minus address reuse).
	return nil
}

// UsableSize implements Allocator.
func (p *PoolAllocator) UsableSize(ptr uint64) (uint64, error) {
	blk, ok := p.live[ptr]
	if !ok {
		return 0, fmt.Errorf("%w: pool usable_size of %#x", ErrInvalidPointer, ptr)
	}
	return blk.size - (ptr - blk.base), nil
}
