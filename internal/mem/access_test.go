package mem

import (
	"fmt"
	"strings"
	"testing"
)

// TestZeroLengthAccessOutsideArena: a zero-length access, checked or
// raw, is a no-op wherever it points — below Base, in the unbacked
// reserve, past the break, or at the top of the address range — as
// refCheck rules: no error, no fault counted, no page dirtied, and the
// reserve stays unbacked. Memmove and RawMemmove are tried with each
// address as destination and as source.
func TestZeroLengthAccessOutsideArena(t *testing.T) {
	// The accessors that index data at addr-lo, checked (through check)
	// and raw, plus the checked view callers build from CheckRead and
	// RawView: each runs one access of n bytes at addr (Memmove and
	// RawMemmove read from src) and returns its error. A raw accessor
	// backs the reserve for any access below lo, so the "unbacked
	// reserve" rows (RawView at Base+4096 among them) pin that a
	// zero-length one backs none of it.
	accessors := []struct {
		name string
		run  func(s *Space, addr, src, n uint64) error
	}{
		{"Read", func(s *Space, addr, _, n uint64) error { _, err := s.Read(addr, n); return err }},
		{"ReadInto", func(s *Space, addr, _, n uint64) error { return s.ReadInto(addr, make([]byte, n)) }},
		{"Write", func(s *Space, addr, _, n uint64) error { return s.Write(addr, make([]byte, n)) }},
		{"Memset", func(s *Space, addr, _, n uint64) error { return s.Memset(addr, 0xAB, n) }},
		{"Memmove", func(s *Space, addr, src, n uint64) error { return s.Memmove(addr, src, n) }},
		{"View", func(s *Space, addr, _, n uint64) error { _, err := checkedView(s, addr, n); return err }},
		{"RawWrite", func(s *Space, addr, _, n uint64) error { return s.RawWrite(addr, make([]byte, n)) }},
		{"RawMemset", func(s *Space, addr, _, n uint64) error { return s.RawMemset(addr, 0xAB, n) }},
		{"RawMemmove", func(s *Space, addr, src, n uint64) error { return s.RawMemmove(addr, src, n) }},
		{"RawView", func(s *Space, addr, _, n uint64) error { _, err := s.RawView(addr, n); return err }},
	}
	probe, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	inArena := probe.End()
	if _, err := probe.Sbrk(PageSize); err != nil {
		t.Fatal(err)
	}
	addrs := []struct {
		name string
		addr uint64
	}{
		{"below base", probe.Base() - 8},
		{"unbacked reserve", probe.Base() + PageSize},
		{"past end", probe.End() + PageSize},
		{"near 2^64", ^uint64(0) - 3},
	}
	for _, acc := range accessors {
		for _, a := range addrs {
			for _, asSrc := range []bool{false, true} {
				if asSrc && !strings.HasSuffix(acc.name, "Memmove") {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/src=%v", acc.name, a.name, asSrc), func(t *testing.T) {
					s, err := NewSpace(Config{})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Sbrk(PageSize); err != nil {
						t.Fatal(err)
					}
					faults := countFaults(s)
					dst, src := a.addr, inArena
					if asSrc {
						dst, src = inArena, a.addr
					}
					if err := acc.run(s, dst, src, 0); err != nil {
						t.Errorf("zero-length access = %v, want nil", err)
					}
					if faults() != 0 || dirtyPages(s) != 0 || s.lo != s.base+DefaultReserve {
						t.Errorf("faults %d, dirty pages %d, floor %#x; want a no-op", faults(), dirtyPages(s), s.lo)
					}
					if err := s.Audit(); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// fuzzSpaces builds two identical lazy spaces: an arena of three pages
// above the unbacked reserve, with one arena page read-only and one
// inaccessible, so refCheck's verdicts include protection faults.
// touch backs the reserve of both first.
func fuzzSpaces(t *testing.T, touch bool) (s, ref *Space) {
	build := func() *Space {
		sp, err := NewSpace(Config{Limit: DefaultReserve + 12*PageSize})
		if err != nil {
			t.Fatal(err)
		}
		arena, err := sp.Sbrk(3 * PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Mprotect(arena+PageSize, PageSize, ProtRead); err != nil {
			t.Fatal(err)
		}
		if err := sp.Mprotect(arena+2*PageSize, PageSize, ProtNone); err != nil {
			t.Fatal(err)
		}
		if touch {
			if err := sp.Write(sp.Base()+PageSize, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		return sp
	}
	return build(), build()
}

// FuzzSpaceAccess drives every checked accessor of a lazy space with
// addresses around and outside [Base, End] — near zero, the base, the
// lazy floor, the break and the top of the address range — and lengths
// that include zero and ranges that wrap. No access may panic, its
// error must be refCheck's verdict on an identical space (for Memmove:
// the source's read verdict, then the destination's write verdict), the
// two spaces must count the same faults, and the audit must pass.
func FuzzSpaceAccess(f *testing.F) {
	for _, seed := range []struct {
		op, anchor, srcAnchor uint8
		off, srcOff           int64
		n                     uint64
		touch                 bool
	}{
		{3, 0, 0, 0, 0, 0, false},                          // memset of nothing at address 0
		{0, 1, 0, -8, 0, 0, false},                         // zero-length read below base
		{5, 3, 0, PageSize, 0, 0, false},                   // zero-length check past the break
		{4, 4, 2, -3, 8, 0, true},                          // zero-length memmove near 2^64
		{0, 4, 0, -3, 0, 8, false},                         // a read that wraps
		{4, 2, 1, 0, 16, 64, false},                        // memmove from the unbacked reserve
		{1, 2, 0, -4, 0, 8, false},                         // a write straddling the floor
		{5, 3, 0, -PageSize - 8, 0, 16, true},              // a read across the read-only page
		{2, 3, 0, -2 * PageSize, 0, ^uint64(0) - 2, false}, // a huge wrapping memset
	} {
		f.Add(seed.op, seed.anchor, seed.srcAnchor, seed.off, seed.srcOff, seed.n, seed.touch)
	}
	f.Fuzz(func(t *testing.T, op, anchor, srcAnchor uint8, off, srcOff int64, n uint64, touch bool) {
		s, ref := fuzzSpaces(t, touch)
		faults, refFaults := countFaults(s), countFaults(ref)
		at := func(a uint8, off int64) uint64 {
			points := []uint64{0, s.Base(), s.lo, s.End(), ^uint64(0)}
			return points[int(a)%len(points)] + uint64(off)
		}
		addr, src := at(anchor, off), at(srcAnchor, srcOff)
		// Accessors that take a Go slice are bounded so the fuzzer
		// cannot ask for gigabytes; the others see n as given.
		small := n % (8 * PageSize)
		var got, want error
		switch op % 6 {
		case 0:
			_, got = s.Read(addr, n)
			want = ref.refCheck(addr, n, AccessRead)
		case 1:
			got = s.Write(addr, make([]byte, small))
			want = ref.refCheck(addr, small, AccessWrite)
		case 2:
			got = s.Memset(addr, 0x5A, n)
			want = ref.refCheck(addr, n, AccessWrite)
		case 3:
			got = s.ReadInto(addr, make([]byte, small))
			want = ref.refCheck(addr, small, AccessRead)
		case 4:
			got = s.Memmove(addr, src, n)
			if want = ref.refCheck(src, n, AccessRead); want == nil {
				want = ref.refCheck(addr, n, AccessWrite)
			}
		default:
			got = s.CheckRead(addr, n)
			want = ref.refCheck(addr, n, AccessRead)
		}
		if errText(got) != errText(want) {
			t.Fatalf("op %d addr %#x src %#x n %d: got %v, refCheck %v", op%6, addr, src, n, got, want)
		}
		if got, want := faults(), refFaults(); got != want {
			t.Fatalf("op %d addr %#x n %d: %d faults, refCheck counted %d", op%6, addr, n, got, want)
		}
		if err := s.Audit(); err != nil {
			t.Fatal(err)
		}
	})
}
