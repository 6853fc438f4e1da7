package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// --- differential: word kernels vs their naive predecessors -----------------

// TestDifferentialLoadStore64 proves the binary.LittleEndian word
// kernels agree bit-for-bit with the byte-loop reference on random
// addresses and values, in both directions.
func TestDifferentialLoadStore64(t *testing.T) {
	s := newTestSpace(t)
	s.back() // the word kernels index data directly: back the reserve they run in
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		addr := s.Base() + uint64(rng.Intn(int(s.Size()-8)))
		v := rng.Uint64()
		s.store64(addr, v)
		if got := s.refLoad64(addr); got != v {
			t.Fatalf("store64 then refLoad64(%#x) = %#x, want %#x", addr, got, v)
		}
		v2 := rng.Uint64()
		s.refStore64(addr, v2)
		if got := s.load64(addr); got != v2 {
			t.Fatalf("refStore64 then load64(%#x) = %#x, want %#x", addr, got, v2)
		}
	}
}

// TestDifferentialCheck drives check and refCheck with identical
// random protection layouts and access ranges on twin spaces and
// asserts identical outcomes: same error presence, same fault address,
// kind, length, and reason, and the same fault counters.
func TestDifferentialCheck(t *testing.T) {
	fast := newTestSpace(t)
	ref := newTestSpace(t)
	rng := rand.New(rand.NewSource(2))
	prots := []Prot{ProtNone, ProtRead, ProtWrite, ProtRW}
	for p := uint64(0); p < fast.Size()/PageSize; p++ {
		pr := prots[rng.Intn(len(prots))]
		addr := fast.Base() + p*PageSize
		if err := fast.Mprotect(addr, PageSize, pr); err != nil {
			t.Fatal(err)
		}
		if err := ref.Mprotect(addr, PageSize, pr); err != nil {
			t.Fatal(err)
		}
	}
	kinds := []AccessKind{AccessRead, AccessWrite}
	for i := 0; i < 20000; i++ {
		var addr uint64
		switch rng.Intn(10) {
		case 0:
			addr = uint64(rng.Intn(1 << 21)) // often below base or past end
		case 1:
			addr = ^uint64(0) - uint64(rng.Intn(64)) // wraparound candidates
		default:
			addr = fast.Base() + uint64(rng.Intn(int(fast.Size()+PageSize)))
		}
		n := uint64(rng.Intn(3 * PageSize))
		if rng.Intn(20) == 0 {
			n = uint64(rng.Intn(8)) // tiny, common case
		}
		kind := kinds[rng.Intn(2)]
		ferr := fast.check(addr, n, kind)
		rerr := ref.refCheck(addr, n, kind)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("check(%#x, %d, %v) = %v, refCheck = %v", addr, n, kind, ferr, rerr)
		}
		if ferr != nil {
			ff, _ := AsFault(ferr)
			rf, _ := AsFault(rerr)
			if *ff != *rf {
				t.Fatalf("check(%#x, %d, %v) fault %+v, refCheck fault %+v", addr, n, kind, ff, rf)
			}
		}
		if fast.Faults() != ref.Faults() {
			t.Fatalf("fault counters diverged after check(%#x, %d, %v): fast %d, ref %d",
				addr, n, kind, fast.Faults(), ref.Faults())
		}
	}
}

// TestDifferentialFill proves the doubling fill equals the byte-loop
// reference for every fill byte across a spread of lengths.
func TestDifferentialFill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 15, 64, 255, 4096, 10000} {
		b := byte(rng.Intn(256))
		got := make([]byte, n)
		want := make([]byte, n)
		rng.Read(got)
		copy(want, got)
		fillBytes(got, b)
		refFill(want, b)
		if !bytes.Equal(got, want) {
			t.Fatalf("fillBytes(len %d, %#x) diverges from refFill", n, b)
		}
	}
}

// TestDifferentialMemset compares Memset on twin spaces: one uses the
// native fill, the other the reference fill over a writable view.
func TestDifferentialMemset(t *testing.T) {
	fast := newTestSpace(t)
	ref := newTestSpace(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		addr := fast.Base() + uint64(rng.Intn(int(fast.Size()-PageSize)))
		n := uint64(rng.Intn(2 * PageSize))
		if !fast.Contains(addr, n) {
			continue
		}
		b := byte(rng.Intn(256))
		if err := fast.Memset(addr, b, n); err != nil {
			t.Fatal(err)
		}
		region, err := ref.WritableView(addr, n)
		if err != nil {
			t.Fatal(err)
		}
		refFill(region, b)
		fd, _ := fast.RawView(fast.Base(), fast.Size())
		rd, _ := ref.RawView(ref.Base(), ref.Size())
		if !bytes.Equal(fd, rd) {
			t.Fatalf("Memset(%#x, %#x, %d) diverges from reference fill", addr, b, n)
		}
	}
}

// --- views -------------------------------------------------------------------

func TestViewMatchesRead(t *testing.T) {
	s := newTestSpace(t)
	if err := s.Write(s.Base()+100, []byte("hello, view")); err != nil {
		t.Fatal(err)
	}
	view, err := s.View(s.Base()+100, 11)
	if err != nil {
		t.Fatal(err)
	}
	read, err := s.Read(s.Base()+100, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, read) {
		t.Fatalf("View = %q, Read = %q", view, read)
	}
	// A view respects protection like Read does.
	if err := s.Mprotect(s.Base(), PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.View(s.Base()+100, 11); !IsFault(err) {
		t.Errorf("View of PROT_NONE page err = %v, want fault", err)
	}
	if _, err := s.RawView(s.Base()+100, 11); err != nil {
		t.Errorf("RawView of PROT_NONE page err = %v, want nil", err)
	}
}

func TestWritableViewWritesThrough(t *testing.T) {
	s := newTestSpace(t)
	view, err := s.WritableView(s.Base()+64, 4)
	if err != nil {
		t.Fatal(err)
	}
	copy(view, "abcd")
	got, err := s.Read(s.Base()+64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcd" {
		t.Fatalf("after WritableView write, Read = %q", got)
	}
	if err := s.Mprotect(s.Base(), PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WritableView(s.Base()+64, 4); !IsFault(err) {
		t.Errorf("WritableView of read-only page err = %v, want fault", err)
	}
}

func TestRawViewBounds(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.RawView(s.Base()-8, 16); !IsFault(err) {
		t.Errorf("RawView below base err = %v, want fault", err)
	}
	if _, err := s.RawView(s.End()-8, 16); !IsFault(err) {
		t.Errorf("RawView past end err = %v, want fault", err)
	}
}

func TestRawWriteByte(t *testing.T) {
	s := newTestSpace(t)
	if err := s.Mprotect(s.Base(), PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	if err := s.RawWriteByte(s.Base()+5, 0x7F); err != nil {
		t.Fatal(err)
	}
	got, err := s.RawRead(s.Base()+5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x7F {
		t.Fatalf("RawWriteByte stored %#x", got[0])
	}
	if err := s.RawWriteByte(s.Base()-1, 0); !IsFault(err) {
		t.Errorf("RawWriteByte below base err = %v, want fault", err)
	}
}

func TestRawMemmove(t *testing.T) {
	s := newTestSpace(t)
	if err := s.Write(s.Base(), []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	// Overlapping forward copy keeps memmove semantics.
	if err := s.RawMemmove(s.Base()+2, s.Base(), 8); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(s.Base(), 10)
	if string(got) != "0101234567" {
		t.Fatalf("overlapping RawMemmove = %q", got)
	}
	if err := s.RawMemmove(s.Base(), s.Base()-16, 8); !IsFault(err) {
		t.Errorf("RawMemmove from unmapped src err = %v, want fault", err)
	}
}

// --- zero-allocation guarantees ---------------------------------------------

// TestMemKernelAllocs pins the zero-allocation guarantee of the
// steady-state kernels.
func TestMemKernelAllocs(t *testing.T) {
	s := newTestSpace(t)
	buf := make([]byte, 256)
	addr := s.Base() + 128
	cases := []struct {
		name string
		fn   func()
	}{
		{"Load64", func() {
			if _, err := s.Load64(addr); err != nil {
				t.Fatal(err)
			}
		}},
		{"Store64", func() {
			if err := s.Store64(addr, 0xDEADBEEF); err != nil {
				t.Fatal(err)
			}
		}},
		{"Memset", func() {
			if err := s.Memset(addr, 0xAA, 256); err != nil {
				t.Fatal(err)
			}
		}},
		{"Memmove", func() {
			if err := s.Memmove(addr+512, addr, 256); err != nil {
				t.Fatal(err)
			}
		}},
		{"Write", func() {
			if err := s.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		}},
		{"ReadInto", func() {
			if err := s.ReadInto(addr, buf); err != nil {
				t.Fatal(err)
			}
		}},
		{"View", func() {
			if _, err := s.View(addr, 256); err != nil {
				t.Fatal(err)
			}
		}},
		{"RawView", func() {
			if _, err := s.RawView(addr, 256); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
				t.Errorf("%s allocates %.1f per op, want 0", c.name, avg)
			}
		})
	}
}

// --- benchmarks ---------------------------------------------------------------

// BenchmarkMemKernels measures the per-operation cost of the space's
// hot-path kernels.
func BenchmarkMemKernels(b *testing.B) {
	s, err := NewSpace(Config{})
	if err != nil {
		b.Fatal(err)
	}
	addr := s.Base() + 128
	b.Run("Load64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Load64(addr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Store64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.Store64(addr, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Memset4KiB", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if err := s.Memset(addr, byte(i), 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Memmove4KiB", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if err := s.Memmove(addr+8192, addr, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("View", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.View(addr, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CheckRead", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.CheckRead(addr, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
