package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestResetRestoresFreshState: after arbitrary mutation, Reset must
// return the space to a state indistinguishable from a freshly
// constructed one: break at the reserve, all pages zero and ProtRW,
// no page dirty.
func TestResetRestoresFreshState(t *testing.T) {
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := s.Base()

	// Mutate: stores, fills, protection changes, growth, faults.
	if err := s.Write(base+100, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(base+PageSize+8, []byte{0xEF, 0xBE, 0xAD, 0xDE}); err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(base+3*PageSize, 0xAA, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Mprotect(base+5*PageSize, PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	grown, err := s.Sbrk(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RawMemset(grown, 0xBB, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckRead(base+5*PageSize, 8); err == nil {
		t.Fatal("expected fault on ProtNone page")
	}

	s.Reset()

	if s.Size() != DefaultReserve {
		t.Errorf("Size after Reset = %d, want %d", s.Size(), uint64(DefaultReserve))
	}
	if n := dirtyPages(s); n != 0 {
		t.Errorf("DirtyPages after Reset = %d, want 0", n)
	}
	// Every retained byte is zero and every retained page is ProtRW.
	all, err := s.Read(base, s.Size())
	if err != nil {
		t.Fatalf("full read after Reset: %v", err)
	}
	if !bytes.Equal(all, make([]byte, len(all))) {
		t.Error("nonzero bytes survived Reset")
	}
	for a := base; a < s.End(); a += PageSize {
		p, err := s.ProtAt(a)
		if err != nil {
			t.Fatal(err)
		}
		if p != ProtRW {
			t.Errorf("page %#x protection %v after Reset, want rw-", a, p)
		}
	}
}

// TestResetSbrkRegrowZeroed: memory regrown after a Reset must read as
// zero even though the backing capacity held prior contents.
func TestResetSbrkRegrowZeroed(t *testing.T) {
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := s.Sbrk(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Memset(grown, 0xCC, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	regrown, err := s.Sbrk(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if regrown != grown {
		t.Fatalf("regrown at %#x, want deterministic %#x", regrown, grown)
	}
	data, err := s.Read(regrown, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("stale byte %#x at offset %d after Reset+Sbrk", b, i)
		}
	}
}

// TestResetDirtyProportional: Reset work tracks the dirty-page count,
// not the space size; a tiny touch on a large space dirties one page.
func TestResetDirtyProportional(t *testing.T) {
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := dirtyPages(s); n != 0 {
		t.Fatalf("fresh space has %d dirty pages", n)
	}
	if err := s.Write(s.Base()+64, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if n := dirtyPages(s); n != 1 {
		t.Errorf("one word store dirtied %d pages, want 1", n)
	}
	if err := s.Memset(s.Base()+10*PageSize, 1, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if n := dirtyPages(s); n != 4 {
		t.Errorf("after 3-page fill, %d dirty pages, want 4", n)
	}
	s.Reset()
	if n := dirtyPages(s); n != 0 {
		t.Errorf("%d dirty pages after Reset", n)
	}
}

// TestResetDifferential: a reset space must be operationally
// indistinguishable from a fresh one — identical results (data, errors,
// fault addresses, fault counts) for a randomized operation sequence.
func TestResetDifferential(t *testing.T) {
	run := func(s *Space, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		var log []byte
		faults := countFaults(s)
		base := s.Base()
		for i := 0; i < 500; i++ {
			addr := base + uint64(rng.Intn(int(s.Size()+2*PageSize)))
			n := uint64(rng.Intn(300))
			switch rng.Intn(6) {
			case 0:
				buf := make([]byte, n)
				rng.Read(buf)
				err := s.Write(addr, buf)
				log = append(log, byte(errCode(err)))
			case 1:
				data, err := s.Read(addr, n)
				log = append(log, byte(errCode(err)))
				log = append(log, data...)
			case 2:
				err := s.Memset(addr, byte(rng.Intn(256)), n)
				log = append(log, byte(errCode(err)))
			case 3:
				err := s.CheckRead(addr, n)
				log = append(log, byte(errCode(err)))
			case 4:
				pa := addr &^ (PageSize - 1)
				err := s.Mprotect(pa, PageSize, Prot(rng.Intn(4)))
				log = append(log, byte(errCode(err)))
			case 5:
				if fe, ok := func() (*FaultError, bool) {
					_, err := s.Read(addr, n)
					return AsFault(err)
				}(); ok {
					log = append(log, byte(fe.Addr), byte(fe.Addr>>8), byte(fe.Addr>>16))
				}
			}
		}
		log = append(log, byte(faults()))
		return log
	}

	fresh, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	recycled, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the recycled space with a different sequence, then Reset.
	run(recycled, 999)
	recycled.Reset()

	a := run(fresh, 42)
	b := run(recycled, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("reset space diverged from fresh space on identical operations")
	}
}

func errCode(err error) int {
	if err == nil {
		return 0
	}
	if errors.As(err, new(*FaultError)) {
		return 1
	}
	return 2
}

// TestResetAllocFree: the steady-state recycle path (Reset after
// bounded dirtying, plus regrowth into retained capacity) must not
// allocate.
func TestResetAllocFree(t *testing.T) {
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the capacity beyond the reserve once.
	if _, err := s.Sbrk(8 * PageSize); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	base := s.Base()
	avg := testing.AllocsPerRun(100, func() {
		if err := s.Memset(base, 0x5A, 4*PageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Sbrk(8 * PageSize); err != nil {
			t.Fatal(err)
		}
		s.Reset()
	})
	if avg != 0 {
		t.Errorf("recycle path allocates %.1f per run, want 0", avg)
	}
}
