package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestAuditCleanSpace: a fresh space and a lightly used one must audit
// clean — stores and protection changes mark their pages dirty, which
// is exactly what keeps the audit invariant satisfiable.
func TestAuditCleanSpace(t *testing.T) {
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("fresh space: %v", err)
	}
	base, err := s.Sbrk(3 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(base+100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Mprotect(base+PageSize, PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	if err := s.Audit(); err != nil {
		t.Fatalf("used space: %v", err)
	}
	s.Reset()
	if err := s.Audit(); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

// TestAuditCatchesSilentStore: clearing a page's dirty bit after a
// store models the bug class the auditor exists for — a write path
// that forgets markDirty (Reset would then leak stale bytes).
func TestAuditCatchesSilentStore(t *testing.T) {
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(s.Base()+5, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	for i := range s.dirty {
		s.dirty[i] = 0
	}
	err = s.Audit()
	if err == nil || !strings.Contains(err.Error(), "nonzero byte") {
		t.Fatalf("audit = %v, want nonzero-byte violation", err)
	}
}

// TestAuditCatchesSilentProtect: same for a protection change that
// does not dirty the page.
func TestAuditCatchesSilentProtect(t *testing.T) {
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Mprotect(s.Base(), PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	for i := range s.dirty {
		s.dirty[i] = 0
	}
	err = s.Audit()
	if err == nil || !strings.Contains(err.Error(), "prot") {
		t.Fatalf("audit = %v, want prot violation", err)
	}
}

// TestAuditCatchesTableSkew: structural divergence between the mapped
// length, the backing floor and the bookkeeping tables is reported.
func TestAuditCatchesTableSkew(t *testing.T) {
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sbrk(PageSize); err != nil {
		t.Fatal(err)
	}
	save := s.prot
	s.prot = s.prot[:len(s.prot)-1]
	if err := s.Audit(); err == nil {
		t.Fatal("audit passed with truncated prot table")
	}
	s.prot = save

	saveDirty := s.dirty
	s.dirty = s.dirty[:0]
	if err := s.Audit(); err == nil {
		t.Fatal("audit passed with truncated dirty bitmap")
	}
	s.dirty = saveDirty

	s.data = s.data[:len(s.data)-1]
	if err := s.Audit(); err == nil {
		t.Fatal("audit passed with unaligned mapped length")
	}
	s.data = s.data[:len(s.data)+1]

	s.lo -= 8
	if err := s.Audit(); err == nil {
		t.Fatal("audit passed with an unaligned backing floor")
	}
}

// refAudit is the reference audit: the same checks in the same page
// order as Audit, with every backed clean page scanned one word at a
// time.
func refAudit(s *Space) error {
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
	for p := uint64(0); p < npages; p++ {
		page := pageBytes(s, p)
		if s.dirty[p>>6]&(1<<(p&63)) != 0 {
			if page == nil {
				return fmt.Errorf("mem: audit: unbacked page %d is dirty (stores and protection changes must back it)", p)
			}
			continue
		}
		if s.prot[p] != ProtRW {
			return fmt.Errorf("mem: audit: clean page %d has prot %v (protection changes must mark dirty)", p, s.prot[p])
		}
		i := 0
		for ; i+8 <= len(page); i += 8 {
			if binary.LittleEndian.Uint64(page[i:]) != 0 {
				break
			}
		}
		for ; i < len(page); i++ {
			if page[i] != 0 {
				return fmt.Errorf("mem: audit: clean page %d has nonzero byte at offset %d (stores must mark dirty)", p, i)
			}
		}
	}
	return nil
}

// pageBytes returns the backing of page p (numbered from base), or nil
// while p is an unbacked reserve page.
func pageBytes(s *Space, p uint64) []byte {
	addr := s.base + p*PageSize
	if addr < s.lo {
		return nil
	}
	off := addr - s.lo
	return s.data[off : off+PageSize]
}

// requireAuditMatchesRef fails unless Audit and refAudit agree on s,
// byte for byte in the error text.
func requireAuditMatchesRef(t *testing.T, s *Space, what string) {
	t.Helper()
	got, want := s.Audit(), refAudit(s)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: Audit = %v, reference = %v", what, got, want)
	}
}

// TestDifferentialAudit: on spaces of several page counts, after Sbrk
// growth and after Reset, a nonzero byte planted in a backed clean page
// (at the word edges and at random offsets) and a protection change
// that skips the dirty bit must draw the reference scan's error
// exactly. An unbacked reserve page has no bytes to plant in; it takes
// the silent protection change and a silent dirty bit instead.
func TestDifferentialAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	offsets := []int{0, 7, 8, 4088, 4095}
	for i := 0; i < 4; i++ {
		offsets = append(offsets, rng.Intn(PageSize))
	}
	for _, pages := range []uint64{1, 64, 65, 256, 300} {
		s, err := NewSpace(Config{Reserve: pages * PageSize})
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"fresh", "grown", "reset"} {
			switch phase {
			case "grown":
				if _, err := s.Sbrk(70 * PageSize); err != nil {
					t.Fatal(err)
				}
			case "reset":
				if err := s.Memset(s.Base(), 0x5A, s.Size()/2+1); err != nil {
					t.Fatal(err)
				}
				s.Reset()
			}
			n := s.Size() / PageSize
			// A dirty page with content, which both audits must skip.
			if n >= 3 {
				if err := s.Write(s.Base()+n/3*PageSize+3, []byte{0xEE}); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("%d pages, %s", pages, phase)
			requireAuditMatchesRef(t, s, what)
			targets := []uint64{0, n / 2, n - 1, uint64(rng.Int63n(int64(n)))}
			for _, p := range targets {
				if s.dirty[p>>6]&(1<<(p&63)) != 0 {
					continue
				}
				page := pageBytes(s, p)
				if page == nil {
					s.dirty[p>>6] |= 1 << (p & 63)
					requireAuditMatchesRef(t, s, fmt.Sprintf("%s: dirty unbacked page %d", what, p))
					s.dirty[p>>6] &^= 1 << (p & 63)
				}
				for _, off := range offsets {
					if page == nil {
						break
					}
					page[off] = byte(1 + rng.Intn(255))
					requireAuditMatchesRef(t, s, fmt.Sprintf("%s: byte at page %d offset %d", what, p, off))
					page[off] = 0
				}
				s.prot[p] = ProtRead
				requireAuditMatchesRef(t, s, fmt.Sprintf("%s: silent prot on page %d", what, p))
				if page != nil {
					page[offsets[len(offsets)-1]] = 1
					requireAuditMatchesRef(t, s, fmt.Sprintf("%s: silent prot and byte on page %d", what, p))
					page[offsets[len(offsets)-1]] = 0
				}
				s.prot[p] = ProtRW
			}
			requireAuditMatchesRef(t, s, what+" (restored)")
		}
	}
}

// BenchmarkSpaceAudit measures one audit of the default 1 MiB space,
// every page clean: the walker's per-quantum page check. "fresh" is the
// space as constructed, its reserve unbacked; "backed" has the reserve
// backed (every page compared with zeroPage), the number this benchmark
// read before the reserve was backed lazily.
func BenchmarkSpaceAudit(b *testing.B) {
	for _, backed := range []bool{false, true} {
		name := "fresh"
		if backed {
			name = "backed"
		}
		b.Run(name, func(b *testing.B) {
			s, err := NewSpace(Config{})
			if err != nil {
				b.Fatal(err)
			}
			if backed {
				s.back()
			}
			b.SetBytes(int64(s.Size()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Audit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
