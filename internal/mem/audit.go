package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// zeroPage is the all-zero page clean pages are compared against. It
// is never written.
var zeroPage [PageSize]byte

// Audit cross-checks the space's page-state bookkeeping. The dirty
// bitmap is the load-bearing optimization behind cheap Reset — a bit is
// set on every store and every protection change — so its defining
// invariant is checkable from the outside: a page whose bit is clear
// must still be in its freshly-mapped state, ProtRW and all zero. An
// unbacked reserve page has no bytes, so it is zero by construction;
// it must be clean and ProtRW. Audit verifies that, plus the structural
// consistency of the backing floor and of the prot and dirty tables
// against the mapped length. The campaign harness calls it between
// interpreter quanta; it never mutates the space.
//
// Every backed clean page is read in full on every call: bytes.Equal
// against zeroPage runs the runtime's vectorised compare, and the word
// scan runs only on a failing page, to name the offending offset.
func (s *Space) Audit() error {
	if s.lo < s.base || (s.lo-s.base)%PageSize != 0 {
		return fmt.Errorf("mem: audit: backing floor %#x is not a page boundary at or above base %#x", s.lo, s.base)
	}
	if uint64(len(s.data))%PageSize != 0 {
		return fmt.Errorf("mem: audit: mapped length %d is not page aligned", s.Size())
	}
	npages := s.Size() / PageSize
	if uint64(len(s.prot)) != npages {
		return fmt.Errorf("mem: audit: %d prot entries for %d mapped pages", len(s.prot), npages)
	}
	if want := (npages + 63) / 64; uint64(len(s.dirty)) < want {
		return fmt.Errorf("mem: audit: dirty bitmap holds %d words, need %d", len(s.dirty), want)
	}
	unbacked := (s.lo - s.base) / PageSize
	for p := uint64(0); p < npages; p++ {
		if s.dirty[p>>6]&(1<<(p&63)) != 0 {
			if p < unbacked {
				return fmt.Errorf("mem: audit: unbacked page %d is dirty (stores and protection changes must back it)", p)
			}
			continue // dirty pages may hold anything under any prot
		}
		if s.prot[p] != ProtRW {
			return fmt.Errorf("mem: audit: clean page %d has prot %v (protection changes must mark dirty)", p, s.prot[p])
		}
		if p < unbacked {
			continue
		}
		off := (p - unbacked) * PageSize
		page := s.data[off : off+PageSize]
		if bytes.Equal(page, zeroPage[:]) {
			continue
		}
		if off, ok := firstNonZero(page); ok {
			return fmt.Errorf("mem: audit: clean page %d has nonzero byte at offset %d (stores must mark dirty)", p, off)
		}
	}
	return nil
}

// firstNonZero scans b (a page) word-at-a-time and reports the offset
// of the first nonzero byte.
func firstNonZero(b []byte) (int, bool) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			break
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			return i, true
		}
	}
	return 0, false
}
