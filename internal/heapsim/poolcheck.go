package heapsim

import (
	"cmp"
	"fmt"
	"slices"
)

// poolInterval is one free or live block, as CheckIntegrity's overlap
// scan sees it.
type poolInterval struct {
	start, end uint64
	what       string
}

// CheckIntegrity walks the pool allocator's metadata and verifies the
// invariants a healthy slab heap maintains: free-list entries are
// unique, class-sized, inside the mapped space, and never live; live
// blocks are class-consistent and contain the pointer they were handed
// out as; no two blocks (free or live) overlap; and the statistics
// counters agree with the tables they summarize. It is the pool-side
// counterpart of Heap.CheckIntegrity, used by the campaign invariant
// walker between interpreter quanta. The walk never mutates the pool's
// allocation state, and once its scratch is warm it allocates nothing.
func (p *PoolAllocator) CheckIntegrity() error {
	intervals := p.checkBlocks[:0]
	seen := p.checkSeen
	clear(seen)
	var freeBytes uint64
	for class, list := range p.freeLists {
		bs := poolClassSizes[class]
		for _, addr := range list {
			if _, dup := seen[addr]; dup {
				return fmt.Errorf("heapsim: pool free block %#x appears on a free list twice", addr)
			}
			seen[addr] = struct{}{}
			if _, live := p.live[addr]; live {
				return fmt.Errorf("heapsim: pool block %#x is both free and live", addr)
			}
			if !p.space.Contains(addr, bs) {
				return fmt.Errorf("heapsim: pool free block [%#x,%#x) outside the mapped space", addr, addr+bs)
			}
			intervals = append(intervals, poolInterval{addr, addr + bs, "free"})
			freeBytes += bs
		}
	}
	var inUseBytes uint64
	for ptr, blk := range p.live {
		if ptr < blk.base || ptr >= blk.base+blk.size {
			return fmt.Errorf("heapsim: pool live pointer %#x outside its block [%#x,%#x)", ptr, blk.base, blk.base+blk.size)
		}
		if blk.class >= 0 && blk.size != poolClassSizes[blk.class] {
			return fmt.Errorf("heapsim: pool live block %#x has size %d, class size %d", ptr, blk.size, poolClassSizes[blk.class])
		}
		if !p.space.Contains(blk.base, blk.size) {
			return fmt.Errorf("heapsim: pool live block [%#x,%#x) outside the mapped space", blk.base, blk.base+blk.size)
		}
		intervals = append(intervals, poolInterval{blk.base, blk.base + blk.size, "live"})
		inUseBytes += blk.size
	}
	p.checkBlocks = intervals
	// A total order, so the overlap reported is the same on every run
	// whatever the live map's iteration order.
	slices.SortFunc(intervals, func(a, b poolInterval) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end), cmp.Compare(a.what, b.what))
	})
	for i := 1; i < len(intervals); i++ {
		a, b := intervals[i-1], intervals[i]
		if b.start < a.end {
			return fmt.Errorf("heapsim: pool blocks overlap: %s [%#x,%#x) and %s [%#x,%#x)",
				a.what, a.start, a.end, b.what, b.start, b.end)
		}
	}
	if got := uint64(len(p.live)); p.stats.InUseChunks != got {
		return fmt.Errorf("heapsim: pool stats InUseChunks = %d, live table holds %d", p.stats.InUseChunks, got)
	}
	if p.stats.InUseBytes != inUseBytes {
		return fmt.Errorf("heapsim: pool stats InUseBytes = %d, live blocks total %d", p.stats.InUseBytes, inUseBytes)
	}
	if p.stats.FreeBytes != freeBytes {
		return fmt.Errorf("heapsim: pool stats FreeBytes = %d, free lists total %d", p.stats.FreeBytes, freeBytes)
	}
	if freeBytes+inUseBytes > p.stats.ArenaBytes {
		return fmt.Errorf("heapsim: pool accounts for %d bytes, arena only %d", freeBytes+inUseBytes, p.stats.ArenaBytes)
	}
	return nil
}
