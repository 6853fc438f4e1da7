package defense

import (
	"sync/atomic"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/patch"
)

// SealedTable is the patch hash table, and the one place its layout is
// decided: SealTable sizes it, packs its keys and fills its slots, and
// every other form of the table is a copy of these slots. Built once
// from a patch.Set and immutable thereafter, it serves two readers:
//
//   - shared across workers (Config.SharedTable), it gets its integrity
//     from Go immutability: no slot is ever written after SealTable
//     returns, so any number of goroutines may probe it concurrently
//     with plain loads and no synchronization — the lock-free shared
//     read plane of the fleet runtime. This mirrors the paper's
//     deployment, where every thread of the defended process reads one
//     read-only table mapped at startup;
//   - as a Defender's private table, its slots are written word for
//     word into pages of the Defender's own space, which are then made
//     read-only (see patchTable).
//
// Layout: open addressing with linear probing over a power-of-two slot
// count of at least 64 and at least twice the patch count plus one.
// Each slot is two 64-bit words, [key, value]: the key packs {FUN,
// CCID} (packKey), the value holds the type mask, and duplicate keys
// OR their masks into one slot. An all-zero slot is empty; a genuinely
// zero key is stored as tableKeySentinel.
//
// A SealedTable lives outside any mem.Space, so recycling a worker's
// space (mem.Space.Reset) never touches it and a Defender using one
// reconstructs in O(1) instead of re-materializing the table.
type SealedTable struct {
	slots   []uint64 // interleaved [key, value] pairs; len = 2 * nslots
	mask    uint64   // nslots - 1 (nslots is a power of two)
	entries int
	epoch   uint64 // see Epoch

	// hits, when enabled, counts key matches per slot across every
	// worker probing this table — the fleet-wide per-patch hit tally.
	// The atomic add sits inside the key-match branch only, so the
	// (overwhelmingly common) miss path is unchanged. The slice itself
	// is set before the table is shared and never reassigned, keeping
	// the structure immutable in layout even though the counters mutate.
	hits []atomic.Uint64
}

// tableKeySentinel stands in for a genuinely zero key so that the
// all-zero slot can mean "empty".
const tableKeySentinel = ^uint64(0)

// packKey folds {FUN, CCID} into one word: FUN in the top byte, the
// CCID's low 56 bits below. CCIDs are hash-like (PCC) or small
// (additive), so truncation to 56 bits keeps the same collision
// characteristics the paper accepts for PCC.
func packKey(k patch.Key) uint64 {
	key := uint64(k.Fn)<<56 | k.CCID&(1<<56-1)
	if key == 0 {
		key = tableKeySentinel
	}
	return key
}

// mix is a Fibonacci-style initial probe index.
func mix(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> 6 }

// SealTable builds the table from a patch set (nil = no patches).
func SealTable(set *patch.Set) *SealedTable {
	n := uint64(64)
	for n < uint64(set.Len())*2+1 {
		n <<= 1
	}
	t := &SealedTable{slots: make([]uint64, 2*n), mask: n - 1, entries: set.Len()}
	for _, p := range set.Patches() {
		t.insert(packKey(p.Key()), uint64(p.Types))
	}
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
// same per-probe cycle accounting the private image's lookup uses). It
// cannot fault: the table is not addressable from any simulated space,
// so unlike patchTable.lookup there is no corrupted-table error path.
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

// Epoch is the table's place in its fleet's rollout sequence: 0 when
// sealed, one more than its predecessor's once stamped by Succeed.
func (t *SealedTable) Epoch() uint64 { return t.epoch }

// Succeed stamps t as prev's successor; call it before t is shared.
func (t *SealedTable) Succeed(prev *SealedTable) { t.epoch = prev.epoch + 1 }

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
