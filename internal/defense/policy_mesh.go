// The MESH-style policy: memory-efficient safe heap layout without
// guard pages. Three mechanisms, applied to EVERY allocation rather
// than only patched ones:
//
//   - segregated size classes: requests round up to a fixed class, so
//     objects of a class share geometry and freed slots are
//     interchangeable without fine-grained splitting;
//   - zero-fill on allocation: every buffer starts zeroed, closing
//     uninitialized-read leaks unconditionally;
//   - delayed reuse: every free is parked in the FIFO quarantine (the
//     same queue machinery HT uses for UAF-patched buffers) and only
//     returned to the allocator under quota pressure, so dangling
//     pointers see dead, stable memory instead of a recycled object —
//     and the marked metadata word catches double frees for as long
//     as the block is quarantined.
//
// The family has no spatial defense: overflow past a buffer's
// rounded class is a documented expected miss (Family.Containment).
package defense

import (
	"errors"
	"fmt"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// meshClasses are the segregated allocation classes; larger requests
// round up to whole pages.
var meshClasses = [...]uint64{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

// meshRound returns the class a request lands in.
func meshRound(size uint64) uint64 {
	for _, c := range meshClasses {
		if size <= c {
			return c
		}
	}
	return mem.PageAlignUp(size)
}

// meshAllocate places [meta][user(rounded)...] (or the aligned S3
// variant), stores the REQUESTED size in the metadata word (UsableSize
// reports what the caller asked for), and zero-fills the whole class
// slot.
func meshAllocate(d *Defender, fn heapsim.AllocFn, ccid, size, align uint64, isRealloc bool) (uint64, error) {
	d.cycles += cycMetadata + cycClassRound
	rounded := meshRound(size)
	aligned := align > metaSize
	var (
		base, user, meta uint64
		err              error
	)
	if aligned {
		base, err = d.under.Memalign(align, align+rounded)
		user = base + align
		meta = size<<typeBits | lg(align)<<(typeBits+sizeBits) | bitAligned
	} else {
		base, err = d.under.Malloc(metaSize + rounded)
		user = base + metaSize
		meta = size << typeBits
	}
	if err != nil {
		return 0, err
	}
	if err := d.space.RawStore64(user-metaSize, meta); err != nil {
		return 0, fmt.Errorf("defense: metadata store: %w", err)
	}
	// Safe layout: every buffer starts zeroed, whatever its history.
	d.stats.ZeroFills++
	d.cycles += rounded / prog.CycBytesPerCycle
	if err := d.space.RawMemset(user, 0, rounded); err != nil {
		return 0, fmt.Errorf("defense: zero fill: %w", err)
	}
	return user, nil
}

// meshFree quarantines every block: decode the metadata word (the
// freed sentinel of a still-quarantined block surfaces here as a
// double free), then park it in the FIFO. The quota evicts the oldest
// blocks to the real allocator; after eviction the block's metadata
// belongs to the allocator again and double-free detection for it
// lapses — the documented quota limit of delayed reuse.
func meshFree(d *Defender, user, ccid uint64) error {
	d.cycles += cycMetadata
	mi, err := d.decodeMeta(user)
	if err != nil {
		if d.tel != nil && errors.Is(err, ErrDoubleFree) {
			d.tel.Inc(telemetry.CtrDoubleFrees)
			d.tel.Event(telemetry.EvDoubleFree, ccid, user, 0)
		}
		return err
	}
	return d.deferFree(mi, user, ccid)
}
