package patch

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"heaptherapy/internal/heapsim"
)

func TestTypeMaskString(t *testing.T) {
	cases := []struct {
		m    TypeMask
		want string
	}{
		{0, "NONE"},
		{TypeOverflow, "OVERFLOW"},
		{TypeUseAfterFree, "UAF"},
		{TypeUninitRead, "UNINIT_READ"},
		{TypeOverflow | TypeUninitRead, "OVERFLOW|UNINIT_READ"},
		{AllTypes, "OVERFLOW|UAF|UNINIT_READ"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("%#x.String() = %q, want %q", uint8(c.m), got, c.want)
		}
		back, err := ParseTypeMask(c.want)
		if err != nil || back != c.m {
			t.Errorf("ParseTypeMask(%q) = %v, %v; want %#x", c.want, back, err, uint8(c.m))
		}
	}
	if _, err := ParseTypeMask("SPECTRE"); err == nil {
		t.Error("ParseTypeMask accepted unknown type")
	}
}

func TestTypeMaskHas(t *testing.T) {
	m := TypeOverflow | TypeUninitRead
	if !m.Has(TypeOverflow) || !m.Has(TypeUninitRead) {
		t.Error("Has misses set bits")
	}
	if m.Has(TypeUseAfterFree) {
		t.Error("Has reports unset bit")
	}
	if !m.Has(TypeOverflow | TypeUninitRead) {
		t.Error("Has fails on multi-bit query")
	}
}

func TestSetMergesSameKey(t *testing.T) {
	s := NewSet(
		Patch{Fn: heapsim.FnMalloc, CCID: 0x10, Types: TypeOverflow},
		Patch{Fn: heapsim.FnMalloc, CCID: 0x10, Types: TypeUninitRead},
		Patch{Fn: heapsim.FnCalloc, CCID: 0x10, Types: TypeUseAfterFree},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (same-key patches merge)", s.Len())
	}
	got := s.byKey[Key{Fn: heapsim.FnMalloc, CCID: 0x10}]
	if got != TypeOverflow|TypeUninitRead {
		t.Errorf("merged mask = %v, want OVERFLOW|UNINIT_READ", got)
	}
	if s.byKey[Key{Fn: heapsim.FnMalloc, CCID: 0x11}] != 0 {
		t.Error("unpatched key has a nonzero mask")
	}
}

func TestNilSetLookup(t *testing.T) {
	var s *Set
	if s.Len() != 0 {
		t.Error("nil set Len nonzero")
	}
	if s.Patches() != nil {
		t.Error("nil set Patches non-nil")
	}
}

func TestZeroValueSetUsable(t *testing.T) {
	var s Set
	s.Add(Patch{Fn: heapsim.FnMalloc, CCID: 5, Types: TypeOverflow})
	if s.Len() != 1 {
		t.Error("zero-value Set unusable")
	}
}

func TestMerge(t *testing.T) {
	a := NewSet(Patch{Fn: heapsim.FnMalloc, CCID: 1, Types: TypeOverflow})
	b := NewSet(
		Patch{Fn: heapsim.FnMalloc, CCID: 1, Types: TypeUseAfterFree},
		Patch{Fn: heapsim.FnMemalign, CCID: 2, Types: TypeUninitRead},
	)
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", a.Len())
	}
	if got := a.byKey[Key{Fn: heapsim.FnMalloc, CCID: 1}]; got != TypeOverflow|TypeUseAfterFree {
		t.Errorf("merged mask = %v", got)
	}
	a.Merge(nil) // must not panic
}

func TestPatchesSorted(t *testing.T) {
	s := NewSet(
		Patch{Fn: heapsim.FnRealloc, CCID: 9, Types: TypeOverflow},
		Patch{Fn: heapsim.FnMalloc, CCID: 7, Types: TypeOverflow},
		Patch{Fn: heapsim.FnMalloc, CCID: 3, Types: TypeOverflow},
	)
	ps := s.Patches()
	if len(ps) != 3 {
		t.Fatalf("len = %d", len(ps))
	}
	if ps[0].CCID != 3 || ps[1].CCID != 7 || ps[2].Fn != heapsim.FnRealloc {
		t.Errorf("patches not sorted: %v", ps)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	s := NewSet(
		Patch{Fn: heapsim.FnMalloc, CCID: 0xDEADBEEF, Types: TypeOverflow | TypeUninitRead},
		Patch{Fn: heapsim.FnMemalign, CCID: 42, Types: TypeUseAfterFree},
		Patch{Fn: heapsim.FnCalloc, CCID: 0xFFFFFFFFFFFFFFFF, Types: AllTypes},
	)
	var buf bytes.Buffer
	if err := s.WriteConfig(&buf); err != nil {
		t.Fatalf("WriteConfig: %v", err)
	}
	got, err := ReadConfig(&buf)
	if err != nil {
		t.Fatalf("ReadConfig: %v", err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), s.Len())
	}
	for _, p := range s.Patches() {
		if got.byKey[p.Key()] != p.Types {
			t.Errorf("round trip lost %v", p)
		}
	}
}

func TestReadConfigComments(t *testing.T) {
	in := `# comment
FUN=malloc CCID=0x10 T=OVERFLOW

# another
FUN=calloc CCID=16 T=UAF|UNINIT_READ
`
	s, err := ReadConfig(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadConfig: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.byKey[Key{Fn: heapsim.FnCalloc, CCID: 16}]; got != TypeUseAfterFree|TypeUninitRead {
		t.Errorf("calloc patch = %v", got)
	}
}

func TestReadConfigErrors(t *testing.T) {
	bad := []string{
		"FUN=mmap CCID=1 T=OVERFLOW",
		"FUN=malloc CCID=xyz T=OVERFLOW",
		"FUN=malloc CCID=1 T=BANANA",
		"FUN=malloc CCID=1",
		"CCID=1 T=OVERFLOW",
		"FUN=malloc CCID=1 T=NONE",
		"FUN=malloc FUN=malloc CCID=1 T=OVERFLOW",
		"garbage line",
	}
	for _, line := range bad {
		if _, err := ReadConfig(strings.NewReader(line)); err == nil {
			t.Errorf("ReadConfig(%q) succeeded, want error", line)
		}
	}
}

func TestPatchString(t *testing.T) {
	p := Patch{Fn: heapsim.FnMalloc, CCID: 0xABC, Types: TypeOverflow}
	want := "FUN=malloc CCID=0xabc T=OVERFLOW"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestQuickConfigRoundTrip property-tests serialization over arbitrary
// patch contents.
func TestQuickConfigRoundTrip(t *testing.T) {
	fns := []heapsim.AllocFn{
		heapsim.FnMalloc, heapsim.FnCalloc, heapsim.FnRealloc,
		heapsim.FnMemalign, heapsim.FnAlignedAlloc,
	}
	f := func(ccid uint64, fnIdx, typeBits uint8) bool {
		types := TypeMask(typeBits)&AllTypes | TypeOverflow // nonzero
		p := Patch{Fn: fns[int(fnIdx)%len(fns)], CCID: ccid, Types: types}
		var buf bytes.Buffer
		s := NewSet(p)
		if err := s.WriteConfig(&buf); err != nil {
			return false
		}
		got, err := ReadConfig(&buf)
		if err != nil {
			return false
		}
		return got.byKey[p.Key()] == p.Types
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
