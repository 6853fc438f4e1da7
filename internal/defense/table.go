package defense

import (
	"encoding/binary"
	"fmt"

	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// patchTable is a Defender's private patch table: the image of a
// SealedTable (which owns the layout; see sealed.go) written word for
// word into simulated memory and remapped read-only once written —
// exactly as the paper's constructor does ("once the hash table is
// initialized, its memory pages are set as read only", Section VI).
// Keeping the table in the protected address space means a heap attack
// running in the same space cannot silently flip a patch off: any
// write to the table faults, and lookups read the protected pages.
type patchTable struct {
	space *mem.Space
	base  uint64
	slots uint64 // power of two
	pages uint64
}

// slotBytes is one [key, value] slot of the image.
const slotBytes = 16

// newPatchTable maps pages for the sealed table's image at the space's
// break, copies its non-empty words in (the pages start zeroed, which
// is the empty slot), and seals the pages read-only.
func newPatchTable(space *mem.Space, sealed *SealedTable) (*patchTable, error) {
	n := sealed.mask + 1
	bytes := mem.PageAlignUp(n * slotBytes)
	base, err := space.Sbrk(bytes)
	if err != nil {
		return nil, fmt.Errorf("defense: mapping patch table: %w", err)
	}
	for i, w := range sealed.slots {
		if w == 0 {
			continue
		}
		if err := space.RawStore64(base+uint64(i)*8, w); err != nil {
			return nil, fmt.Errorf("defense: writing patch table: %w", err)
		}
	}
	// The constructor's final act: the table becomes read-only.
	if err := space.Mprotect(base, bytes, mem.ProtRead); err != nil {
		return nil, fmt.Errorf("defense: protecting patch table: %w", err)
	}
	return &patchTable{space: space, base: base, slots: n, pages: bytes}, nil
}

// lookup probes for {FUN, CCID} and reports how many slots it touched
// (so cost accounting reflects real probe work). One protection check
// validates the whole sealed read-only table per lookup; the probes
// then fetch both slot words from the borrowed view without further
// per-word validation. A faulting table read — a corrupted or remapped
// table — is surfaced as an error so the defense cannot be silently
// disabled; the caller counts it.
func (t *patchTable) lookup(k patch.Key) (patch.TypeMask, int, error) {
	key := packKey(k)
	view, err := t.view()
	if err != nil {
		return 0, 1, err
	}
	probes := 0
	for i := mix(key); ; i++ {
		probes++
		off := (i % t.slots) * slotBytes
		cur := binary.LittleEndian.Uint64(view[off : off+8])
		if cur == 0 {
			return 0, probes, nil
		}
		if cur == key {
			return patch.TypeMask(binary.LittleEndian.Uint64(view[off+8 : off+16])), probes, nil
		}
	}
}

// view checks readability of the table's pages once (reads are
// permitted on the read-only pages) and returns a borrowed slice over
// the whole table.
func (t *patchTable) view() ([]byte, error) {
	if err := t.space.CheckRead(t.base, t.pages); err != nil {
		return nil, fmt.Errorf("defense: patch table unreadable: %w", err)
	}
	return t.space.RawView(t.base, t.pages)
}
