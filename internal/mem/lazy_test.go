package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// newBackedSpace is the eager reference for the lazy reserve: a space
// whose reserve is backed from construction on, the layout every space
// had before the reserve was backed lazily. resetBacked keeps it so.
func newBackedSpace(t *testing.T, cfg Config) *Space {
	t.Helper()
	s, err := NewSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.back()
	return s
}

func resetBacked(s *Space) {
	s.Reset()
	s.back()
}

// dirtyBytes returns the bytes of s's dirty pages in address order.
// With equal dirty bitmaps and clean audits, two spaces whose dirty
// bytes match map the same bytes: Audit holds every clean page zero.
func dirtyBytes(s *Space) []byte {
	var out []byte
	for p := uint64(0); p < s.Size()/PageSize; p++ {
		if s.dirty[p>>6]&(1<<(p&63)) != 0 {
			off := s.base + p*PageSize - s.lo // a dirty page is backed
			out = append(out, s.data[off:off+PageSize]...)
		}
	}
	return out
}

// errText renders an error for comparison; nil is "<nil>".
func errText(err error) string { return fmt.Sprint(err) }

// lazyAddr draws an address around the interesting points of a space
// with a reserve ending at floor: the base, the lazy floor, the break,
// 8-byte straddles of the floor, and random points in and around the
// mapping. With arenaOnly it draws only at or above the floor, so the
// lazy space stays unbacked across Resets and the arena pages Reset
// zeroes sit at a different offset than in the backed layout.
func lazyAddr(rng *rand.Rand, s *Space, floor uint64, arenaOnly bool) uint64 {
	if arenaOnly {
		if s.End() <= floor {
			return floor + uint64(rng.Intn(64))
		}
		return floor + uint64(rng.Int63n(int64(s.End()-floor+32)))
	}
	switch rng.Intn(6) {
	case 0:
		return s.Base() + uint64(rng.Intn(64))
	case 1:
		return floor - 1 - uint64(rng.Intn(7)) // an 8-byte access here straddles the floor
	case 2:
		return floor - 32 + uint64(rng.Intn(64))
	case 3:
		return s.End() - 32 + uint64(rng.Intn(64))
	case 4:
		return s.Base() - PageSize + uint64(rng.Int63n(int64(s.Size()+2*PageSize)))
	default:
		if s.End() > floor {
			return floor + uint64(rng.Int63n(int64(s.End()-floor)))
		}
		return floor - 8 + uint64(rng.Intn(16))
	}
}

func lazyLen(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return []uint64{0, 1, 7, 8, 9, 16}[rng.Intn(6)]
	case 1:
		return uint64(rng.Intn(2 * PageSize))
	default:
		return uint64(rng.Intn(64))
	}
}

// TestLazyReserveMatchesBacked: seeded random operation sequences on a
// lazily backed space and on the eager reference return the same
// values and error texts at every step, and leave the same fault count,
// dirty-page count, audit verdict, protection table and mapped bytes.
// Addresses land below, on, across and above the lazy floor, including
// 8-byte accesses that straddle it; Sbrk, Mprotect and Reset run among
// them, so the lazy space is backed and unbacked many times over, and
// every other 50 steps stay in the arena so Resets also find it
// unbacked with dirty arena pages.
func TestLazyReserveMatchesBacked(t *testing.T) {
	cfg := Config{Limit: DefaultReserve + 56*PageSize}
	prots := []Prot{ProtNone, ProtRead, ProtWrite, ProtRW}
	for seed := int64(1); seed <= 24; seed++ {
		lazy, err := NewSpace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newBackedSpace(t, cfg)
		lazyFaults, refFaults := countFaults(lazy), countFaults(ref)
		floor := lazy.lo
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 400; step++ {
			arenaOnly := step/50%2 == 1
			addr := lazyAddr(rng, ref, floor, arenaOnly)
			n := lazyLen(rng)
			src := lazyAddr(rng, ref, floor, arenaOnly)
			buf := make([]byte, n)
			rng.Read(buf)
			b := byte(rng.Intn(256))
			v64 := rng.Uint64()
			pages := uint64(rng.Intn(3))
			op := rng.Intn(17)
			apply := func(s *Space) string {
				switch op {
				case 0:
					v, err := s.RawLoad64(addr)
					return fmt.Sprint(v, err)
				case 1:
					return errText(s.RawStore64(addr, v64^n))
				case 2:
					v, err := s.Read(addr, n)
					return fmt.Sprint(v, err)
				case 3:
					return errText(s.Write(addr, buf))
				case 4:
					return errText(s.Memset(addr, b, n))
				case 5:
					return errText(s.RawMemset(addr, b, n))
				case 6:
					return errText(s.Memmove(addr, src, n))
				case 7:
					return errText(s.RawMemmove(addr, src, n))
				case 8:
					v, err := s.RawView(addr, n)
					return fmt.Sprint(v, err)
				case 9:
					dst := make([]byte, n)
					err := s.ReadInto(addr, dst)
					return fmt.Sprint(dst, err)
				case 10:
					return errText(s.RawWrite(addr, buf))
				case 11:
					return errText(s.RawWriteByte(addr, b))
				case 12:
					pa := addr &^ (PageSize - 1)
					return errText(s.Mprotect(pa, pages*PageSize, prots[b%4]))
				case 13:
					p, err := s.ProtAt(addr)
					return fmt.Sprint(p, err)
				case 14:
					return errText(s.CheckRead(addr, n))
				case 15:
					if b < 64 {
						if s == ref {
							resetBacked(s)
						} else {
							s.Reset()
						}
						return "reset"
					}
					v, err := s.Sbrk(uint64(b) * 64)
					return fmt.Sprint(v, err)
				default:
					// BackedLoad64 may miss only where the lazy space is
					// unbacked; a hit reads what RawLoad64 reads.
					v, ok := s.BackedLoad64(addr)
					if !ok && s == lazy && addr < s.lo && addr+8 > s.base {
						return "unbacked"
					}
					return fmt.Sprint(v, ok)
				}
			}
			want := apply(ref)
			got := apply(lazy)
			where := fmt.Sprintf("seed %d step %d op %d addr %#x n %d", seed, step, op, addr, n)
			if got != want && got != "unbacked" {
				t.Fatalf("%s: lazy = %.200s, backed = %.200s", where, got, want)
			}
			requireSameSpace(t, lazy, ref, where)
			if lf, rf := lazyFaults(), refFaults(); lf != rf {
				t.Fatalf("%s: lazy counted %d faults, backed %d", where, lf, rf)
			}
		}
	}
}

// requireSameSpace compares everything observable about two spaces.
func requireSameSpace(t *testing.T, lazy, ref *Space, where string) {
	t.Helper()
	if lazy.lo != lazy.base && lazy.lo != lazy.base+DefaultReserve {
		t.Fatalf("%s: lazy floor %#x is neither base nor the reserve's end", where, lazy.lo)
	}
	if lazy.End() != ref.End() || !slices.Equal(lazy.dirty, ref.dirty) {
		t.Fatalf("%s: lazy end/dirty pages %#x/%d, backed %#x/%d", where,
			lazy.End(), dirtyPages(lazy), ref.End(), dirtyPages(ref))
	}
	if got, want := errText(lazy.Audit()), errText(ref.Audit()); got != want {
		t.Fatalf("%s: lazy audit %s, backed audit %s", where, got, want)
	}
	if !slices.Equal(lazy.prot, ref.prot) {
		t.Fatalf("%s: protection tables differ", where)
	}
	if !bytes.Equal(dirtyBytes(lazy), dirtyBytes(ref)) {
		t.Fatalf("%s: mapped bytes differ", where)
	}
}

// TestNewSpaceUnbacked: a fresh default space costs under one page of
// Go heap, audits clean with its reserve unbacked, and a Reset after a
// reserve touch unbacks the reserve again, keeping its zeroed backing
// so the next touch allocates nothing. A dirty bit on an unbacked page
// breaks the audit invariant.
func TestNewSpaceUnbacked(t *testing.T) {
	var before, after runtime.MemStats
	const spaces = 64
	keep := make([]*Space, spaces)
	runtime.ReadMemStats(&before)
	for i := range keep {
		s, err := NewSpace(Config{})
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = s
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / spaces; per >= PageSize {
		t.Errorf("NewSpace allocates %d bytes of Go heap, want under %d", per, PageSize)
	}

	s := keep[0]
	unbacked := func(what string) {
		t.Helper()
		if s.lo != s.base+DefaultReserve || len(s.data) != 0 {
			t.Fatalf("%s: floor %#x, %d backed bytes; want the reserve unbacked", what, s.lo, len(s.data))
		}
		if err := s.Audit(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	unbacked("fresh")

	p := uint64(3)
	s.dirty[0] |= 1 << p
	if err := s.Audit(); err == nil || !strings.Contains(err.Error(), "unbacked page 3 is dirty") {
		t.Fatalf("audit with a dirty unbacked page = %v", err)
	}
	s.dirty[0] = 0

	touch := func() {
		if err := s.Write(s.Base()+p*PageSize+8, []byte{0xEE, 0xFF, 0xC0}); err != nil {
			t.Fatal(err)
		}
	}
	touch()
	if s.lo != s.base || uint64(len(s.data)) != DefaultReserve || dirtyPages(s) != 1 {
		t.Fatalf("after a reserve store: floor %#x, %d bytes, %d dirty pages", s.lo, len(s.data), dirtyPages(s))
	}
	if err := s.Audit(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	unbacked("reset after a reserve touch")
	if len(s.spare) != 0 || cap(s.spare) < int(DefaultReserve) || !bytes.Equal(s.spare[:DefaultReserve], make([]byte, DefaultReserve)) {
		t.Fatal("Reset did not keep a zeroed reserve backing")
	}
	if avg := testing.AllocsPerRun(20, func() { touch(); s.Reset() }); avg != 0 {
		t.Errorf("touch-and-Reset allocates %.1f per run, want 0", avg)
	}
	unbacked("after the touch-and-Reset loop")
}
