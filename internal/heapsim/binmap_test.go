package heapsim

import (
	"errors"
	"math/rand"
	"testing"
)

// refPick is the linear bin walk allocChunk made before the bin
// bitmaps: the chunk a request of need chunk bytes is served from, or
// the top chunk when no bin holds a fit.
func refPick(h *Heap, need uint64) uint64 {
	firstFitLarge := func(i int) uint64 {
		for c := h.largeBins[i]; c != 0; c = h.fd(c) {
			if h.chunkSize(c) >= need {
				return c
			}
		}
		return 0
	}
	if small, idx := binIndex(need); small {
		if c := h.smallBins[idx]; c != 0 && h.chunkSize(c) == need {
			return c
		}
		for i := idx + 1; i < numSmallBins; i++ {
			if c := h.smallBins[i]; c != 0 {
				return c
			}
		}
		for i := 0; i < numLargeBins; i++ {
			if c := firstFitLarge(i); c != 0 {
				return c
			}
		}
	} else {
		_, idx := binIndex(need)
		for i := idx; i < numLargeBins; i++ {
			if c := firstFitLarge(i); c != 0 {
				return c
			}
		}
	}
	return h.top
}

// diffSize draws a request size: the edges of the small bins (the last
// small bin is chunk size smallBinMax), sizes across the small and
// large bins, and a few multi-page requests that grow the arena.
func diffSize(rng *rand.Rand) uint64 {
	switch rng.Intn(8) {
	case 0:
		edges := []uint64{0, 1, 24, 25, smallBinMax - 24, smallBinMax - 16, smallBinMax - headerSize, smallBinMax - headerSize + 1, 2040, 2041}
		return edges[rng.Intn(len(edges))]
	case 1, 2, 3:
		return uint64(rng.Intn(smallBinMax))
	case 4, 5, 6:
		return smallBinMax + uint64(rng.Intn(16<<10))
	default:
		return 16<<10 + uint64(rng.Intn(96<<10))
	}
}

// heapModel is the test-side account of what the heap must report: the
// live set and the statistics.
type heapModel struct {
	live  map[uint64]bool
	order []uint64 // the live payloads in allocation order, for rng picks
	dead  []uint64 // freed payloads, for double frees
	stats Stats
}

func (m *heapModel) inUseBytes(h *Heap) uint64 {
	var n uint64
	for p := range m.live {
		n += h.chunkSize(chunkOf(p)) - headerSize
	}
	return n
}

func (m *heapModel) add(h *Heap, p uint64) {
	m.live[p] = true
	m.order = append(m.order, p)
	m.stats.InUseChunks++
	m.stats.InUseBytes = m.inUseBytes(h)
	m.stats.PeakInUseBytes = max(m.stats.PeakInUseBytes, m.stats.InUseBytes)
}

func (m *heapModel) remove(h *Heap, p uint64) {
	delete(m.live, p)
	for i, q := range m.order {
		if q == p {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.dead = append(m.dead, p)
	m.stats.InUseChunks--
	m.stats.InUseBytes = m.inUseBytes(h)
}

func (m *heapModel) anyLive(rng *rand.Rand) uint64 { return m.order[rng.Intn(len(m.order))] }

// check compares the heap against the model after one step.
func (m *heapModel) check(t *testing.T, h *Heap, step int) {
	t.Helper()
	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if h.LiveCount() != len(m.live) {
		t.Fatalf("step %d: LiveCount = %d, model %d", step, h.LiveCount(), len(m.live))
	}
	for p := range m.live {
		if !h.IsLive(p) {
			t.Fatalf("step %d: live payload %#x not IsLive", step, p)
		}
	}
	for _, p := range m.dead {
		if !m.live[p] && h.IsLive(p) {
			t.Fatalf("step %d: freed payload %#x still IsLive", step, p)
		}
	}
	var free uint64
	for _, head := range append(h.smallBins[:], h.largeBins[:]...) {
		for c := head; c != 0; c = h.fd(c) {
			free += h.chunkSize(c)
		}
	}
	want := m.stats
	want.ArenaBytes = h.arenaEnd - h.arenaStart
	want.FreeBytes = free
	got := h.Stats()
	// Splits and coalesces depend on neighbour layout; the model does
	// not track them.
	want.Splits, want.Coalesces = got.Splits, got.Coalesces
	if got != want {
		t.Fatalf("step %d: Stats = %+v\nmodel %+v", step, got, want)
	}
}

// TestHeapBinmapDifferential drives seeded random allocation sequences
// and checks, step by step, that every bin-served allocation lands on
// the chunk the linear bin walk picks, and that liveness, LiveCount and
// Stats match a map model of the live set.
func TestHeapBinmapDifferential(t *testing.T) {
	const steps = 2500
	var picks, lastSmall, largeHits, fromTop int
	realloc := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		h := newTestHeap(t)
		rng := rand.New(rand.NewSource(seed))
		m := &heapModel{live: map[uint64]bool{}}

		// ref records, before an allocation of need chunk bytes, the
		// chunk the linear walk picks and the size it has there.
		type pickRef struct {
			c, size uint64
			top     bool
		}
		ref := func(need uint64) pickRef {
			if c := refPick(h, need); c != h.top {
				return pickRef{c: c, size: h.chunkSize(c)}
			}
			return pickRef{c: h.top, top: true}
		}
		// expectPick asserts that the allocation returned the picked chunk.
		expectPick := func(step int, want pickRef, p uint64) {
			t.Helper()
			if p != payload(want.c) {
				t.Fatalf("seed %d step %d: allocation at %#x, linear walk picks %#x", seed, step, p, payload(want.c))
			}
			picks++
			switch {
			case want.top:
				fromTop++
			case want.size == smallBinMax:
				lastSmall++
			case want.size > smallBinMax:
				largeHits++
			}
		}
		for step := 0; step < steps; step++ {
			op := rng.Intn(20)
			if len(m.live) == 0 && op >= 8 && op < 18 {
				op = 0
			}
			switch {
			case op < 4: // malloc
				size := diffSize(rng)
				need, _ := chunkSizeFor(size)
				want := ref(need)
				p, err := h.Malloc(size)
				if err != nil {
					t.Fatalf("seed %d step %d: Malloc(%d): %v", seed, step, size, err)
				}
				expectPick(step, want, p)
				m.stats.Mallocs++
				m.add(h, p)
			case op < 6: // calloc
				n, size := uint64(1+rng.Intn(16)), diffSize(rng)/16
				need, _ := chunkSizeFor(n * size)
				want := ref(need)
				p, err := h.Calloc(n, size)
				if err != nil {
					t.Fatalf("seed %d step %d: Calloc(%d, %d): %v", seed, step, n, size, err)
				}
				expectPick(step, want, p)
				m.stats.Callocs++
				m.add(h, p)
			case op < 8: // memalign
				align := uint64(1) << (3 + rng.Intn(6))
				size := diffSize(rng)
				p, err := h.Memalign(align, size)
				if err != nil {
					t.Fatalf("seed %d step %d: Memalign(%d, %d): %v", seed, step, align, size, err)
				}
				if p%align != 0 {
					t.Fatalf("seed %d step %d: Memalign(%d) = %#x", seed, step, align, p)
				}
				m.stats.Memaligns++
				m.add(h, p)
			case op < 13: // free
				p := m.anyLive(rng)
				if err := h.Free(p); err != nil {
					t.Fatalf("seed %d step %d: Free(%#x): %v", seed, step, p, err)
				}
				m.stats.Frees++
				m.remove(h, p)
			case op < 18: // realloc
				p := m.anyLive(rng)
				size := diffSize(rng)
				c, before := chunkOf(p), m.stats.InUseBytes
				need, _ := chunkSizeFor(size)
				cur := h.chunkSize(c)
				kind := "move"
				switch next := c + cur; {
				case need <= cur:
					kind = "shrink"
				case next == h.top:
					kind = "top"
				case !h.inUse(next) && cur+h.chunkSize(next) >= need:
					kind = "absorb"
				}
				want := ref(need)
				q, err := h.Realloc(p, size)
				if err != nil {
					t.Fatalf("seed %d step %d: Realloc(%#x, %d): %v", seed, step, p, size, err)
				}
				realloc[kind]++
				m.stats.Reallocs++
				if kind == "move" {
					expectPick(step, want, q)
					m.stats.PeakInUseBytes = max(m.stats.PeakInUseBytes, before+h.chunkSize(chunkOf(q))-headerSize)
					m.remove(h, p)
					m.add(h, q)
					break
				}
				if q != p {
					t.Fatalf("seed %d step %d: %s realloc moved %#x to %#x", seed, step, kind, p, q)
				}
				m.stats.InUseBytes = m.inUseBytes(h)
				m.stats.PeakInUseBytes = max(m.stats.PeakInUseBytes, m.stats.InUseBytes)
			default: // invalid or double free
				bad := []uint64{0x10, h.arenaStart - chunkAlign, h.arenaEnd, h.arenaEnd + chunkAlign, payload(h.top), 1 << 50}
				if len(m.dead) > 0 {
					bad = append(bad, m.dead[rng.Intn(len(m.dead))])
				}
				if len(m.live) > 0 {
					p := m.anyLive(rng)
					bad = append(bad, p+headerSize, p+chunkAlign, p-chunkAlign)
				}
				p := bad[rng.Intn(len(bad))]
				if m.live[p] {
					break
				}
				if h.IsLive(p) {
					t.Fatalf("seed %d step %d: IsLive(%#x) for a non-payload", seed, step, p)
				}
				if err := h.Free(p); !errors.Is(err, ErrInvalidPointer) {
					t.Fatalf("seed %d step %d: Free(%#x) = %v, want ErrInvalidPointer", seed, step, p, err)
				}
				if _, err := h.Realloc(p, 8); !errors.Is(err, ErrInvalidPointer) {
					t.Fatalf("seed %d step %d: Realloc(%#x) = %v, want ErrInvalidPointer", seed, step, p, err)
				}
				if _, err := h.UsableSize(p); !errors.Is(err, ErrInvalidPointer) {
					t.Fatalf("seed %d step %d: UsableSize(%#x) = %v, want ErrInvalidPointer", seed, step, p, err)
				}
			}
			m.check(t, h, step)
		}
	}
	t.Logf("%d checked picks: %d from the last small bin, %d from large bins, %d from top; reallocs %v",
		picks, lastSmall, largeHits, fromTop, realloc)
	if lastSmall == 0 || largeHits == 0 || fromTop == 0 {
		t.Errorf("pick coverage: last small bin %d, large bins %d, top %d; want each > 0", lastSmall, largeHits, fromTop)
	}
	for _, kind := range []string{"shrink", "top", "absorb", "move"} {
		if realloc[kind] == 0 {
			t.Errorf("no %s realloc exercised", kind)
		}
	}
}
