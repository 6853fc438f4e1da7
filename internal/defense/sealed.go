package defense

import (
	"sync/atomic"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/patch"
)

// SealedTable is the patch hash table in its cross-worker shared form:
// the same open-addressing layout as the in-space patchTable, built
// once from a patch.Set and immutable thereafter. Where the in-space
// table gets its integrity from read-only page protection (a write
// faults), the sealed table gets it from Go immutability: no slot is
// ever written after SealTable returns, so any number of goroutines
// may probe it concurrently with plain loads and no synchronization —
// the lock-free shared read plane of the fleet runtime. This mirrors
// the paper's deployment, where every thread of the defended process
// reads one read-only table mapped at startup.
//
// A SealedTable lives outside any mem.Space, so recycling a worker's
// space (mem.Space.Reset) never touches it and a Defender using one
// reconstructs in O(1) instead of re-materializing the table.
type SealedTable struct {
	slots   []uint64 // interleaved [key, value] pairs; len = 2 * nslots
	mask    uint64   // nslots - 1 (nslots is a power of two)
	entries int

	// hits, when enabled, counts key matches per slot across every
	// worker probing this table — the fleet-wide per-patch hit tally.
	// The atomic add sits inside the key-match branch only, so the
	// (overwhelmingly common) miss path is unchanged. The slice itself
	// is set before the table is shared and never reassigned, keeping
	// the structure immutable in layout even though the counters mutate.
	hits []atomic.Uint64
}

// SealTable builds the immutable shared table from a patch set, using
// the identical sizing, key packing, and probe sequence as the
// in-space table so the two are behaviorally interchangeable.
func SealTable(set *patch.Set) *SealedTable {
	if set == nil {
		set = patch.NewSet()
	}
	n := uint64(1)
	for n < uint64(set.Len())*2+1 {
		n <<= 1
	}
	if n < 64 {
		n = 64
	}
	t := &SealedTable{slots: make([]uint64, 2*n), mask: n - 1}
	for _, p := range set.Patches() {
		t.insert(packKey(p.Key()), uint64(p.Types))
	}
	t.entries = set.Len()
	return t
}

func (t *SealedTable) insert(key, value uint64) {
	for i := mix(key); ; i++ {
		off := (i & t.mask) * 2
		switch t.slots[off] {
		case 0:
			t.slots[off] = key
			t.slots[off+1] = value
			return
		case key:
			t.slots[off+1] |= value
			return
		}
	}
}

// Lookup probes for {FUN, CCID} and reports the probe count (for the
// same per-probe cycle accounting the in-space table uses). It cannot
// fault: the table is not addressable from any simulated space, so
// unlike patchTable.lookup there is no corrupted-table error path.
func (t *SealedTable) Lookup(k patch.Key) (patch.TypeMask, int) {
	key := packKey(k)
	probes := 0
	for i := mix(key); ; i++ {
		probes++
		off := (i & t.mask) * 2
		cur := t.slots[off]
		if cur == 0 {
			return 0, probes
		}
		if cur == key {
			if t.hits != nil {
				t.hits[i&t.mask].Add(1)
			}
			return patch.TypeMask(t.slots[off+1]), probes
		}
	}
}

// Probe is Lookup minus the per-slot hit tally: the side-effect-free
// variant backing Defender.ProbePatched. The fleet-wide per-patch hit
// tally counts defended allocations, which only the allocation-path
// Lookup performs, so an observer's probe must not add to it.
func (t *SealedTable) Probe(k patch.Key) patch.TypeMask {
	key := packKey(k)
	for i := mix(key); ; i++ {
		off := (i & t.mask) * 2
		cur := t.slots[off]
		if cur == 0 {
			return 0
		}
		if cur == key {
			return patch.TypeMask(t.slots[off+1])
		}
	}
}

// Entries reports the number of patches sealed into the table.
func (t *SealedTable) Entries() int { return t.entries }

// EnableHitCounts allocates the per-slot hit counters. It must be
// called before the table is shared across goroutines (typically right
// after SealTable); calling it again is a no-op.
func (t *SealedTable) EnableHitCounts() {
	if t.hits == nil {
		t.hits = make([]atomic.Uint64, len(t.slots)/2)
	}
}

// HitCounts reports the fleet-wide lookup hits per installed patch key,
// or nil when hit counting was never enabled. It may be called while
// workers are still probing; each count is read atomically.
func (t *SealedTable) HitCounts() map[patch.Key]uint64 {
	if t.hits == nil {
		return nil
	}
	out := make(map[patch.Key]uint64, t.entries)
	for slot := range t.hits {
		n := t.hits[slot].Load()
		if n == 0 {
			continue
		}
		key := t.slots[slot*2]
		if key == tableKeySentinel {
			key = 0
		}
		out[patch.Key{Fn: heapsim.AllocFn(key >> 56), CCID: key & (1<<56 - 1)}] = n
	}
	return out
}
