package defense

import (
	"encoding/binary"
	"fmt"

	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// patchTable is the online defense's hash table, held in simulated
// memory and remapped read-only once initialization completes —
// exactly as the paper's constructor does ("once the hash table is
// initialized, its memory pages are set as read only", Section VI).
// Keeping the table in the protected address space means a heap attack
// running in the same space cannot silently flip a patch off: any
// write to the table faults.
//
// Layout: open addressing with linear probing. Each slot is two
// 64-bit words: [key][value], where key packs the CCID's low 56 bits
// with the allocation function in the high byte (the {FUN, CCID} pair
// of the paper), and value holds the type mask. Empty slots are
// all-zero; a zero key is represented by a reserved sentinel.
type patchTable struct {
	space *mem.Space
	base  uint64
	slots uint64 // power of two
	pages uint64
}

const (
	slotBytes = 16
	// tableKeySentinel stands in for a genuinely zero key so that the
	// all-zero slot can mean "empty".
	tableKeySentinel = ^uint64(0)
)

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

// newPatchTable materializes the patch set into protected memory.
func newPatchTable(space *mem.Space, set *patch.Set) (*patchTable, error) {
	n := uint64(1)
	for n < uint64(set.Len())*2+1 {
		n <<= 1
	}
	if n < 64 {
		n = 64
	}
	bytes := mem.RoundUpPage(n * slotBytes)
	base, err := space.Sbrk(bytes)
	if err != nil {
		return nil, fmt.Errorf("defense: mapping patch table: %w", err)
	}
	t := &patchTable{space: space, base: base, slots: n, pages: bytes}
	for _, p := range set.Patches() {
		if err := t.insert(packKey(p.Key()), uint64(p.Types)); err != nil {
			return nil, err
		}
	}
	// The constructor's final act: the table becomes read-only.
	if err := space.Mprotect(base, bytes, mem.ProtRead); err != nil {
		return nil, fmt.Errorf("defense: protecting patch table: %w", err)
	}
	return t, nil
}

func (t *patchTable) slotAddr(i uint64) uint64 { return t.base + (i%t.slots)*slotBytes }

func (t *patchTable) insert(key, value uint64) error {
	for i := mix(key); ; i++ {
		addr := t.slotAddr(i)
		cur, err := t.space.RawLoad64(addr)
		if err != nil {
			return fmt.Errorf("defense: patch table insert: %w", err)
		}
		if cur == 0 {
			if err := t.space.RawStore64(addr, key); err != nil {
				return err
			}
			return t.space.RawStore64(addr+8, value)
		}
		if cur == key {
			old, err := t.space.RawLoad64(addr + 8)
			if err != nil {
				return err
			}
			return t.space.RawStore64(addr+8, old|value)
		}
	}
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

// mix is a Fibonacci-style initial probe index.
func mix(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> 6 }
