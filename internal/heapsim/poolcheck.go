package heapsim

import (
	"cmp"
	"fmt"
	"slices"
)

// poolGranule is the occupancy bitmap's resolution: the smallest class
// size, so every block of a healthy pool covers whole granules.
const poolGranule = 32

// poolInterval is one free or live block, as CheckIntegrity's sorted
// overlap scan sees it.
type poolInterval struct {
	start, end uint64
	live       bool
}

func (iv poolInterval) what() string {
	if iv.live {
		return "live"
	}
	return "free"
}

// granuleMap is CheckIntegrity's occupancy bitmap: one bit per
// poolGranule bytes of [lo, hi), the pool's arena.
type granuleMap struct {
	lo, hi uint64
	bits   []uint64
}

// reset empties the map and sizes it to cover [lo, hi), keeping its
// backing array.
func (m *granuleMap) reset(lo, hi uint64) {
	m.lo, m.hi = lo, hi
	words := int((hi - lo + poolGranule*64 - 1) / (poolGranule * 64))
	m.bits = slices.Grow(m.bits[:0], words)[:words]
	clear(m.bits)
}

// claim marks the granules [start, end) touches. It reports false when
// the range is empty, leaves the map, or touches a granule already
// claimed: a possible duplicate or overlap that only an exact scan can
// confirm or clear (a misaligned block shares granules with its
// neighbours without overlapping them).
func (m *granuleMap) claim(start, end uint64) bool {
	if start < m.lo || end > m.hi || start >= end {
		return false
	}
	ok := true
	g, last := (start-m.lo)/poolGranule, (end-m.lo+poolGranule-1)/poolGranule
	for g < last {
		n := min(last-g, 64-g%64)
		mask := ^uint64(0) >> (64 - n) << (g % 64)
		if m.bits[g/64]&mask != 0 {
			ok = false
		}
		m.bits[g/64] |= mask
		g += n
	}
	return ok
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
//
// Duplicates and overlaps are found without sorting: every block
// claims its granules in an occupancy bitmap over the pool's arena, so
// a healthy pool passes in one linear walk. Only a collision (or a
// block outside the arena) pays for the exact checks — a search of the
// earlier free entries for a duplicate, and the sorted overlap scan —
// which report the same error, with the same text, as a sorted walk
// of every block would.
func (p *PoolAllocator) CheckIntegrity() error {
	occ := &p.checkOcc
	if p.arenaLo != 0 {
		occ.reset(p.arenaLo, p.space.End())
	} else {
		occ.reset(0, 0)
	}
	collided := false
	var freeBytes uint64
	for class, list := range p.freeLists {
		bs := poolClassSizes[class]
		for i, addr := range list {
			if !occ.claim(addr, addr+bs) {
				collided = true
				if p.freeBefore(class, i, addr) {
					return fmt.Errorf("heapsim: pool free block %#x appears on a free list twice", addr)
				}
			}
			if _, live := p.live[addr]; live {
				return fmt.Errorf("heapsim: pool block %#x is both free and live", addr)
			}
			if !p.space.Contains(addr, bs) {
				return fmt.Errorf("heapsim: pool free block [%#x,%#x) outside the mapped space", addr, addr+bs)
			}
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
		if !occ.claim(blk.base, blk.base+blk.size) {
			collided = true
		}
		inUseBytes += blk.size
	}
	if collided {
		if err := p.overlapScan(); err != nil {
			return err
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

// freeBefore reports whether addr is on a free list ahead of entry i
// of class's list, in CheckIntegrity's walk order.
func (p *PoolAllocator) freeBefore(class, i int, addr uint64) bool {
	for c, list := range p.freeLists[:class+1] {
		if c == class {
			list = list[:i]
		}
		if slices.Contains(list, addr) {
			return true
		}
	}
	return false
}

// overlapScan sorts every free and live block and reports the first
// overlapping pair. Its total order makes the reported pair the same
// on every run, whatever the live map's iteration order.
func (p *PoolAllocator) overlapScan() error {
	intervals := p.checkBlocks[:0]
	for class, list := range p.freeLists {
		for _, addr := range list {
			intervals = append(intervals, poolInterval{addr, addr + poolClassSizes[class], false})
		}
	}
	for _, blk := range p.live {
		intervals = append(intervals, poolInterval{blk.base, blk.base + blk.size, true})
	}
	p.checkBlocks = intervals
	slices.SortFunc(intervals, func(a, b poolInterval) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end), cmp.Compare(a.what(), b.what()))
	})
	for i := 1; i < len(intervals); i++ {
		a, b := intervals[i-1], intervals[i]
		if b.start < a.end {
			return fmt.Errorf("heapsim: pool blocks overlap: %s [%#x,%#x) and %s [%#x,%#x)",
				a.what(), a.start, a.end, b.what(), b.start, b.end)
		}
	}
	return nil
}
