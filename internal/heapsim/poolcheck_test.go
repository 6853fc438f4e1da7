package heapsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"heaptherapy/internal/mem"
)

func newCheckedPool(t testing.TB) *PoolAllocator {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(space)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoolCheckIntegrityHealthy drives the pool through every
// operation class and asserts the walker stays quiet at each step.
func TestPoolCheckIntegrityHealthy(t *testing.T) {
	p := newCheckedPool(t)
	check := func(stage string) {
		t.Helper()
		if err := p.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	check("fresh")
	var ptrs []uint64
	for _, size := range []uint64{1, 32, 33, 500, 4096, 70000} {
		ptr, err := p.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
		check("after malloc")
	}
	c, err := p.Calloc(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	check("after calloc")
	m, err := p.Memalign(256, 100)
	if err != nil {
		t.Fatal(err)
	}
	check("after memalign")
	r, err := p.Realloc(ptrs[1], 1000)
	if err != nil {
		t.Fatal(err)
	}
	ptrs[1] = r
	check("after realloc")
	for _, ptr := range append(ptrs, c, m) {
		if err := p.Free(ptr); err != nil {
			t.Fatal(err)
		}
		check("after free")
	}
	p.Reset()
	check("after Reset")
}

// TestPoolCheckIntegrityViolations corrupts pool metadata in each way
// the walker guards against and asserts detection. Every mutation is
// undone so the cases stay independent.
func TestPoolCheckIntegrityViolations(t *testing.T) {
	p := newCheckedPool(t)
	ptr, err := p.Malloc(48) // class 64
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("healthy pool: %v", err)
	}
	class := classFor(48)

	t.Run("duplicate free entry", func(t *testing.T) {
		list := p.freeLists[class]
		p.freeLists[class] = append(list, list[0])
		defer func() { p.freeLists[class] = list }()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("free and live", func(t *testing.T) {
		list := p.freeLists[class]
		p.freeLists[class] = append(list, ptr)
		defer func() { p.freeLists[class] = list }()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "both free and live") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("free block outside space", func(t *testing.T) {
		list := p.freeLists[class]
		p.freeLists[class] = append(list, 1<<40)
		p.stats.FreeBytes += poolClassSizes[class]
		defer func() {
			p.freeLists[class] = list
			p.stats.FreeBytes -= poolClassSizes[class]
		}()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "outside the mapped space") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("overlapping blocks", func(t *testing.T) {
		blk := p.live[ptr]
		p.live[ptr+8] = blk
		p.stats.InUseChunks++
		p.stats.InUseBytes += blk.size
		defer func() {
			delete(p.live, ptr+8)
			p.stats.InUseChunks--
			p.stats.InUseBytes -= blk.size
		}()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "overlap") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("pointer outside block", func(t *testing.T) {
		blk := p.live[ptr]
		bad := blk
		bad.base = ptr + blk.size
		p.live[ptr] = bad
		defer func() { p.live[ptr] = blk }()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "outside its block") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("class size mismatch", func(t *testing.T) {
		blk := p.live[ptr]
		bad := blk
		bad.size = 24
		p.live[ptr] = bad
		p.stats.InUseBytes -= blk.size - 24
		defer func() {
			p.live[ptr] = blk
			p.stats.InUseBytes += blk.size - 24
		}()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "class size") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("stats chunk skew", func(t *testing.T) {
		p.stats.InUseChunks++
		defer func() { p.stats.InUseChunks-- }()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "InUseChunks") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("stats byte skew", func(t *testing.T) {
		p.stats.InUseBytes++
		defer func() { p.stats.InUseBytes-- }()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "InUseBytes") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("stats free-byte skew", func(t *testing.T) {
		p.stats.FreeBytes++
		defer func() { p.stats.FreeBytes-- }()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "FreeBytes") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("arena under-accounted", func(t *testing.T) {
		save := p.stats.ArenaBytes
		p.stats.ArenaBytes = 1
		defer func() { p.stats.ArenaBytes = save }()
		if err := p.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "arena") {
			t.Fatalf("got %v", err)
		}
	})
	// The corruption cases above must all have been undone.
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("pool left corrupt by test: %v", err)
	}
}

// refCheckIntegrity is the sorted walk CheckIntegrity replaced, kept as
// its reference: every block goes into one interval list, a map finds
// duplicate free entries, and a sort by (start, end, kind) finds the
// first overlapping pair. CheckIntegrity must return exactly its error.
func refCheckIntegrity(p *PoolAllocator) error {
	type interval struct {
		start, end uint64
		what       string
	}
	var intervals []interval
	seen := map[uint64]struct{}{}
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
			intervals = append(intervals, interval{addr, addr + bs, "free"})
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
		intervals = append(intervals, interval{blk.base, blk.base + blk.size, "live"})
		inUseBytes += blk.size
	}
	slices.SortFunc(intervals, func(a, b interval) int {
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

// randomPool drives a fresh pool through a seeded mix of malloc,
// calloc, memalign (so live keys differ from block bases), realloc and
// free, over class sizes and large runs, and returns it with its live
// pointers.
func randomPool(t testing.TB, rng *rand.Rand, ops int) (*PoolAllocator, []uint64) {
	t.Helper()
	p := newCheckedPool(t)
	var live []uint64
	size := func() uint64 {
		if rng.Intn(10) == 0 {
			return 65536 + uint64(rng.Intn(3*mem.PageSize))
		}
		return 1 + uint64(rng.Intn(2000))
	}
	for i := 0; i < ops; i++ {
		var ptr uint64
		var err error
		switch k := rng.Intn(6); {
		case k == 0 && len(live) > 0:
			j := rng.Intn(len(live))
			err = p.Free(live[j])
			live = slices.Delete(live, j, j+1)
		case k == 1 && len(live) > 0:
			j := rng.Intn(len(live))
			live[j], err = p.Realloc(live[j], size())
		case k == 2:
			ptr, err = p.Memalign(uint64(16)<<rng.Intn(5), size())
		case k == 3:
			ptr, err = p.Calloc(uint64(1+rng.Intn(4)), size()/4+1)
		default:
			ptr, err = p.Malloc(size())
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if ptr != 0 {
			live = append(live, ptr)
		}
	}
	return p, live
}

// poolCorruption damages one aspect of a pool's metadata.
type poolCorruption struct {
	name string
	// apply damages p and reports false when p offers nothing to
	// damage this way.
	apply func(p *PoolAllocator, rng *rand.Rand, live []uint64) bool
}

// anyFree picks a random free entry: its class and index.
func anyFree(p *PoolAllocator, rng *rand.Rand) (class, i int, ok bool) {
	var nonEmpty []int
	for c, list := range p.freeLists {
		if len(list) > 0 {
			nonEmpty = append(nonEmpty, c)
		}
	}
	if len(nonEmpty) == 0 {
		return 0, 0, false
	}
	class = nonEmpty[rng.Intn(len(nonEmpty))]
	return class, rng.Intn(len(p.freeLists[class])), true
}

var poolCorruptions = []poolCorruption{
	{"duplicate free entry", func(p *PoolAllocator, rng *rand.Rand, _ []uint64) bool {
		c, i, ok := anyFree(p, rng)
		if ok {
			// Onto its own list or another class's.
			to := rng.Intn(len(p.freeLists))
			p.freeLists[to] = append(p.freeLists[to], p.freeLists[c][i])
		}
		return ok
	}},
	{"free and live", func(p *PoolAllocator, rng *rand.Rand, live []uint64) bool {
		if len(live) == 0 {
			return false
		}
		ptr := live[rng.Intn(len(live))]
		class := max(p.live[ptr].class, 0)
		p.freeLists[class] = append(p.freeLists[class], ptr)
		return true
	}},
	{"misaligned free block", func(p *PoolAllocator, rng *rand.Rand, _ []uint64) bool {
		c, i, ok := anyFree(p, rng)
		if ok {
			p.freeLists[c][i] += uint64(8 * (1 + rng.Intn(7)))
		}
		return ok
	}},
	{"misaligned live block", func(p *PoolAllocator, rng *rand.Rand, live []uint64) bool {
		if len(live) == 0 {
			return false
		}
		// The block and its pointer slide off the granule grid.
		ptr := live[rng.Intn(len(live))]
		blk := p.live[ptr]
		shift := uint64(8 * (1 + rng.Intn(3)))
		if _, taken := p.live[ptr+shift]; taken {
			return false
		}
		delete(p.live, ptr)
		blk.base += shift
		p.live[ptr+shift] = blk
		return true
	}},
	{"overlapping free block", func(p *PoolAllocator, rng *rand.Rand, live []uint64) bool {
		// A new free entry inside a live block, with the free bytes it
		// claims accounted for.
		if len(live) == 0 {
			return false
		}
		blk := p.live[live[rng.Intn(len(live))]]
		p.freeLists[0] = append(p.freeLists[0], blk.base+uint64(rng.Intn(int(blk.size))))
		p.stats.FreeBytes += poolClassSizes[0]
		return true
	}},
	{"overlapping live block", func(p *PoolAllocator, rng *rand.Rand, live []uint64) bool {
		if len(live) == 0 {
			return false
		}
		// A new live entry starting inside another live block.
		blk := p.live[live[rng.Intn(len(live))]]
		key := blk.base + uint64(rng.Intn(int(blk.size)))
		if _, taken := p.live[key]; taken {
			return false
		}
		p.live[key] = poolBlock{base: key, class: -1, size: 64}
		p.stats.InUseChunks++
		p.stats.InUseBytes += 64
		return true
	}},
	{"free block outside space", func(p *PoolAllocator, rng *rand.Rand, _ []uint64) bool {
		// Straddling the break, past it, or below the space.
		addr := []uint64{p.space.End() - 16, p.space.End() + mem.PageSize, p.space.Base() - 64}[rng.Intn(3)]
		p.freeLists[0] = append(p.freeLists[0], addr)
		p.stats.FreeBytes += poolClassSizes[0]
		return true
	}},
	{"live block outside space", func(p *PoolAllocator, rng *rand.Rand, live []uint64) bool {
		key := p.space.End() + uint64(rng.Intn(mem.PageSize))
		p.live[key] = poolBlock{base: key, class: -1, size: mem.PageSize}
		p.stats.InUseChunks++
		p.stats.InUseBytes += mem.PageSize
		return true
	}},
	{"free block below the arena", func(p *PoolAllocator, rng *rand.Rand, _ []uint64) bool {
		// In the space but under the pool's first run: no overlap, so
		// only the free-byte total betrays it.
		p.freeLists[1] = append(p.freeLists[1], p.space.Base()+64*uint64(rng.Intn(64)))
		return true
	}},
	{"stats skew", func(p *PoolAllocator, rng *rand.Rand, _ []uint64) bool {
		switch rng.Intn(5) {
		case 0:
			p.stats.InUseChunks++
		case 1:
			p.stats.InUseBytes--
		case 2:
			p.stats.FreeBytes += 32
		case 3:
			p.stats.ArenaBytes /= 2
		default:
			p.stats.InUseChunks--
		}
		return true
	}},
}

// TestPoolCheckDifferential runs CheckIntegrity against the sorted
// reference walk over random pools, healthy and with one corruption
// injected, and requires the same verdict with the same text.
func TestPoolCheckDifferential(t *testing.T) {
	const seeds = 25
	hits := map[string]int{}
	for seed := int64(0); seed < seeds; seed++ {
		for _, c := range append([]poolCorruption{{"healthy", nil}}, poolCorruptions...) {
			rng := rand.New(rand.NewSource(seed))
			p, live := randomPool(t, rng, 20+rng.Intn(200))
			if c.apply != nil && !c.apply(p, rng, live) {
				continue
			}
			want := refCheckIntegrity(p)
			got := p.CheckIntegrity()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d, %s: CheckIntegrity = %v, reference %v", seed, c.name, got, want)
			}
			if (c.apply == nil) != (got == nil) {
				t.Fatalf("seed %d, %s: verdict %v", seed, c.name, got)
			}
			if got != nil {
				hits[strings.Fields(strings.TrimPrefix(got.Error(), "heapsim: pool "))[0]]++
			}
		}
	}
	// Every kind of error text must have been reached.
	for _, kind := range []string{"free", "block", "live", "blocks", "stats", "accounts"} {
		if hits[kind] == 0 {
			t.Errorf("no corruption produced a %q error (got %v)", kind, hits)
		}
	}
}

// TestPoolCheckFalseCollision pins the bitmap's one inexact case: two
// misaligned free blocks that share a granule without overlapping pass,
// as they pass the sorted walk.
func TestPoolCheckFalseCollision(t *testing.T) {
	p := newCheckedPool(t)
	if _, err := p.Malloc(1); err != nil { // carves a run of 32-byte blocks
		t.Fatal(err)
	}
	list := p.freeLists[0]
	// The run's blocks x, x+32, x+64 become [x+8, x+40) and [x+40, x+72):
	// a third entry goes, so the free bytes drop by one block.
	x := list[0]
	if list[1] != x+32 || list[2] != x+64 {
		t.Fatalf("unexpected run layout %#x", list[:3])
	}
	p.freeLists[0] = append([]uint64{x + 8, x + 40}, list[3:]...)
	p.stats.FreeBytes -= 32
	if err := refCheckIntegrity(p); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity: %v", err)
	}
}

// poolForCheck builds a pool with a realistic mix of free and live
// blocks for the audit benchmark and its allocation pin.
func poolForCheck(tb testing.TB) *PoolAllocator {
	p, _ := randomPool(tb, rand.New(rand.NewSource(1)), 400)
	if err := p.CheckIntegrity(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkPoolCheckIntegrity times one audit of a healthy pool: the
// campaign walker's pool-side check.
func BenchmarkPoolCheckIntegrity(b *testing.B) {
	p := poolForCheck(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.CheckIntegrity(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPoolCheckZeroAlloc pins a warm audit of a healthy pool at 0
// allocations.
func TestPoolCheckZeroAlloc(t *testing.T) {
	p := poolForCheck(t)
	if avg := testing.AllocsPerRun(20, func() {
		if err := p.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm pool audit allocates %.1f per run, want 0", avg)
	}
}
