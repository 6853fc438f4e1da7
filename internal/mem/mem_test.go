package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"heaptherapy/internal/telemetry"
)

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(Config{})
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return s
}

// countFaults attaches a fresh collector to s and returns a reader of
// the faults s has reported into it since.
func countFaults(s *Space) func() uint64 {
	c := telemetry.New(telemetry.Config{Shards: 1, RingSize: 1})
	s.SetTelemetry(c.Scope())
	return func() uint64 { return c.Snapshot().Counter(telemetry.CtrFaults) }
}

// checkedView is how a caller borrows a read-checked view of memory,
// as the defense's patch table does on every lookup: CheckRead, then
// RawView.
func checkedView(s *Space, addr, n uint64) ([]byte, error) {
	if err := s.CheckRead(addr, n); err != nil {
		return nil, err
	}
	return s.RawView(addr, n)
}

// dirtyPages counts the pages of s marked dirty (mutated since
// construction or the last Reset).
func dirtyPages(s *Space) int {
	n := 0
	for _, w := range s.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestNewSpaceDefaults(t *testing.T) {
	s := newTestSpace(t)
	if s.Base() != DefaultBase {
		t.Errorf("Base() = %#x, want %#x", s.Base(), uint64(DefaultBase))
	}
	if s.Size() != DefaultReserve {
		t.Errorf("Size() = %d, want %d", s.Size(), uint64(DefaultReserve))
	}
	if s.End() != DefaultBase+DefaultReserve {
		t.Errorf("End() = %#x, want %#x", s.End(), uint64(DefaultBase+DefaultReserve))
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := newTestSpace(t)
	addr := s.Base() + 123
	want := []byte("heap therapy plus")
	if err := s.Write(addr, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := s.Read(addr, uint64(len(want)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Read = %q, want %q", got, want)
	}
}

func TestNilAddressFaults(t *testing.T) {
	s := newTestSpace(t)
	_, err := s.Read(0, 1)
	fe, ok := AsFault(err)
	if !ok {
		t.Fatalf("Read(0) err = %v, want *FaultError", err)
	}
	if fe.Kind != AccessRead {
		t.Errorf("fault kind = %v, want read", fe.Kind)
	}
}

func TestOutOfRangeFaults(t *testing.T) {
	s := newTestSpace(t)
	if err := s.Write(s.End(), []byte{1}); !errors.As(err, new(*FaultError)) {
		t.Errorf("Write past end err = %v, want fault", err)
	}
	// A range that starts mapped but runs off the end must fault too.
	if err := s.Write(s.End()-4, make([]byte, 8)); !errors.As(err, new(*FaultError)) {
		t.Errorf("Write straddling end err = %v, want fault", err)
	}
}

func TestWrappingRangeFaults(t *testing.T) {
	s := newTestSpace(t)
	if err := s.CheckRead(^uint64(0)-2, 8); !errors.As(err, new(*FaultError)) {
		t.Errorf("wrapping CheckRead err = %v, want fault", err)
	}
}

func TestMprotectGuardPage(t *testing.T) {
	s := newTestSpace(t)
	guard := s.Base() + 4*PageSize
	if err := s.Mprotect(guard, PageSize, ProtNone); err != nil {
		t.Fatalf("Mprotect: %v", err)
	}

	// Access to the page before the guard is fine.
	if err := s.Write(guard-8, make([]byte, 8)); err != nil {
		t.Fatalf("Write before guard: %v", err)
	}
	// Touching the guard faults at the exact guard address.
	err := s.Write(guard-4, make([]byte, 8))
	fe, ok := AsFault(err)
	if !ok {
		t.Fatalf("Write into guard err = %v, want fault", err)
	}
	if fe.Addr != guard {
		t.Errorf("fault addr = %#x, want guard start %#x", fe.Addr, guard)
	}
	if fe.Kind != AccessWrite {
		t.Errorf("fault kind = %v, want write", fe.Kind)
	}
	// Reads fault as well (overread protection).
	if _, err := s.Read(guard, 1); !errors.As(err, new(*FaultError)) {
		t.Errorf("Read of guard err = %v, want fault", err)
	}

	// Unprotecting restores access, as the defense does on free().
	if err := s.Mprotect(guard, PageSize, ProtRW); err != nil {
		t.Fatalf("Mprotect restore: %v", err)
	}
	if err := s.Write(guard, []byte{42}); err != nil {
		t.Errorf("Write after unprotect: %v", err)
	}
}

func TestMprotectReadOnly(t *testing.T) {
	s := newTestSpace(t)
	page := s.Base() + 8*PageSize
	if err := s.Write(page, []byte("patch table")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := s.Mprotect(page, PageSize, ProtRead); err != nil {
		t.Fatalf("Mprotect: %v", err)
	}
	if _, err := s.Read(page, 11); err != nil {
		t.Errorf("Read of read-only page: %v", err)
	}
	if err := s.Write(page, []byte{1}); !errors.As(err, new(*FaultError)) {
		t.Errorf("Write to read-only page err = %v, want fault", err)
	}
}

func TestMprotectRejectsUnaligned(t *testing.T) {
	s := newTestSpace(t)
	if err := s.Mprotect(s.Base()+1, PageSize, ProtNone); err == nil {
		t.Error("Mprotect accepted unaligned address")
	}
	if err := s.Mprotect(s.Base(), PageSize+1, ProtNone); err == nil {
		t.Error("Mprotect accepted unaligned length")
	}
	if err := s.Mprotect(s.End(), PageSize, ProtNone); err == nil {
		t.Error("Mprotect accepted unmapped range")
	}
}

func TestSbrkGrowsSpace(t *testing.T) {
	s := newTestSpace(t)
	oldEnd := s.End()
	got, err := s.Sbrk(1) // rounds up to one page
	if err != nil {
		t.Fatalf("Sbrk: %v", err)
	}
	if got != oldEnd {
		t.Errorf("Sbrk returned %#x, want previous end %#x", got, oldEnd)
	}
	if s.End() != oldEnd+PageSize {
		t.Errorf("End after Sbrk = %#x, want %#x", s.End(), oldEnd+PageSize)
	}
	// New memory is zeroed and RW.
	b, err := s.Read(got, PageSize)
	if err != nil {
		t.Fatalf("Read new page: %v", err)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("new page byte %d = %d, want 0", i, v)
		}
	}
}

func TestMemmoveOverlap(t *testing.T) {
	s := newTestSpace(t)
	addr := s.Base()
	if err := s.Write(addr, []byte("abcdefgh")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := s.Memmove(addr+2, addr, 6); err != nil {
		t.Fatalf("Memmove: %v", err)
	}
	got, err := s.Read(addr, 8)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "ababcdef" {
		t.Errorf("after overlap Memmove = %q, want %q", got, "ababcdef")
	}
}

func TestMemset(t *testing.T) {
	s := newTestSpace(t)
	addr := s.Base() + 64
	if err := s.Memset(addr, 0xAB, 100); err != nil {
		t.Fatalf("Memset: %v", err)
	}
	got, err := s.Read(addr, 100)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i, v := range got {
		if v != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, v)
		}
	}
}

func TestLoadStore64(t *testing.T) {
	s := newTestSpace(t)
	addr := s.Base() + 16
	const want = uint64(0xDEADBEEFCAFEF00D)
	if err := s.RawStore64(addr, want); err != nil {
		t.Fatalf("RawStore64: %v", err)
	}
	got, err := s.RawLoad64(addr)
	if err != nil {
		t.Fatalf("RawLoad64: %v", err)
	}
	if got != want {
		t.Errorf("RawLoad64 = %#x, want %#x", got, want)
	}
	// Verify little-endian layout.
	b, _ := s.Read(addr, 1)
	if b[0] != 0x0D {
		t.Errorf("low byte = %#x, want 0x0D (little endian)", b[0])
	}
}

func TestRawAccessBypassesProtection(t *testing.T) {
	s := newTestSpace(t)
	page := s.Base() + 2*PageSize
	if err := s.Mprotect(page, PageSize, ProtNone); err != nil {
		t.Fatalf("Mprotect: %v", err)
	}
	if err := s.RawStore64(page, 0x1234); err != nil {
		t.Fatalf("RawStore64 on protected page: %v", err)
	}
	v, err := s.RawLoad64(page)
	if err != nil {
		t.Fatalf("RawLoad64 on protected page: %v", err)
	}
	if v != 0x1234 {
		t.Errorf("RawLoad64 = %#x, want 0x1234", v)
	}
	// But raw access still faults on unmapped addresses.
	if err := s.RawStore64(s.End(), 1); !errors.As(err, new(*FaultError)) {
		t.Errorf("RawStore64 past end err = %v, want fault", err)
	}
}

func TestFaultCounting(t *testing.T) {
	s := newTestSpace(t)
	faults := countFaults(s)
	if n := faults(); n != 0 {
		t.Fatalf("fresh space counted %d faults, want 0", n)
	}
	_, _ = s.Read(0, 1)
	_ = s.Write(0, []byte{1})
	if n := faults(); n != 2 {
		t.Errorf("counted %d faults, want 2", n)
	}
}

func TestProtString(t *testing.T) {
	cases := []struct {
		p    Prot
		want string
	}{
		{ProtNone, "---"},
		{ProtRead, "r--"},
		{ProtWrite, "-w-"},
		{ProtRW, "rw-"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", uint8(c.p), got, c.want)
		}
	}
}

func TestFaultErrorMessage(t *testing.T) {
	fe := &FaultError{Addr: 0x1000, Kind: AccessWrite, Len: 8, Reason: "guard page"}
	msg := fe.Error()
	for _, want := range []string{"write", "0x1000", "guard page"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("FaultError message %q missing %q", msg, want)
		}
	}
}

func TestAsFaultUnwraps(t *testing.T) {
	fe := &FaultError{Addr: 1, Kind: AccessRead, Len: 1, Reason: "x"}
	wrapped := fmt.Errorf("interpreting op: %w", fe)
	got, ok := AsFault(wrapped)
	if !ok || got != fe {
		t.Errorf("AsFault(wrapped) = %v, %v; want original fault", got, ok)
	}
	if _, ok := AsFault(errors.New("plain")); ok {
		t.Error("AsFault(plain error) matched, want no fault")
	}
}

func TestPageRounding(t *testing.T) {
	cases := []struct {
		in, up uint64
	}{
		{0, 0},
		{1, PageSize},
		{PageSize, PageSize},
		{PageSize + 1, 2 * PageSize},
	}
	for _, c := range cases {
		if got := PageAlignUp(c.in); got != c.up {
			t.Errorf("PageAlignUp(%d) = %d, want %d", c.in, got, c.up)
		}
	}
	if got := PageAlignUp(PageSize + 5); got != 2*PageSize {
		t.Errorf("PageAlignUp = %d, want %d", got, uint64(2*PageSize))
	}
}

// TestQuickWriteReadIdentity property-tests that any in-bounds write is
// read back verbatim.
func TestQuickWriteReadIdentity(t *testing.T) {
	s := newTestSpace(t)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := s.Base() + uint64(off)
		if !s.Contains(addr, uint64(len(data))) {
			return true
		}
		if err := s.Write(addr, data); err != nil {
			return false
		}
		got, err := s.Read(addr, uint64(len(data)))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickProtectionIsPageGranular property-tests that protecting one
// page never affects its neighbors.
func TestQuickProtectionIsPageGranular(t *testing.T) {
	s := newTestSpace(t)
	pages := s.Size() / PageSize
	f := func(pageIdx uint16) bool {
		p := uint64(pageIdx) % (pages - 2)
		p++ // keep a neighbor on each side
		addr := s.Base() + p*PageSize
		if err := s.Mprotect(addr, PageSize, ProtNone); err != nil {
			return false
		}
		defer func() { _ = s.Mprotect(addr, PageSize, ProtRW) }()
		okBefore := s.Write(addr-8, make([]byte, 8)) == nil
		okAfter := s.Write(addr+PageSize, make([]byte, 8)) == nil
		faulted := errors.As(s.Write(addr, []byte{1}), new(*FaultError))
		return okBefore && okAfter && faulted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRawAccessErrorPaths(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.RawView(s.End(), 8); !errors.As(err, new(*FaultError)) {
		t.Error("RawView past end accepted")
	}
	if err := s.RawWrite(s.End(), []byte{1}); !errors.As(err, new(*FaultError)) {
		t.Error("RawWrite past end accepted")
	}
	if err := s.RawMemset(s.End(), 0, 8); !errors.As(err, new(*FaultError)) {
		t.Error("RawMemset past end accepted")
	}
	if _, err := s.RawLoad64(0); !errors.As(err, new(*FaultError)) {
		t.Error("RawLoad64 of nil accepted")
	}
	if _, err := s.ProtAt(0); err == nil {
		t.Error("ProtAt of unmapped address accepted")
	}
}

func TestSbrkLimit(t *testing.T) {
	s := newTestSpace(t)
	if _, err := s.Sbrk(DefaultLimit + PageSize); err == nil {
		t.Error("Sbrk beyond the segment limit accepted")
	}
}

func TestMemmoveFaultPaths(t *testing.T) {
	s := newTestSpace(t)
	guard := s.Base() + 4*PageSize
	if err := s.Mprotect(guard, PageSize, ProtNone); err != nil {
		t.Fatal(err)
	}
	// Source inside the guard faults on read.
	if err := s.Memmove(s.Base(), guard, 8); !errors.As(err, new(*FaultError)) {
		t.Error("Memmove from protected source accepted")
	}
	// Destination inside the guard faults on write.
	if err := s.Memmove(guard, s.Base(), 8); !errors.As(err, new(*FaultError)) {
		t.Error("Memmove into protected destination accepted")
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" {
		t.Error("AccessKind strings wrong")
	}
	if AccessKind(99).String() == "" {
		t.Error("unknown AccessKind empty")
	}
}

func TestConfigLimitHonored(t *testing.T) {
	s, err := NewSpace(Config{Limit: DefaultReserve + 2*PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sbrk(2 * PageSize); err != nil {
		t.Fatalf("Sbrk within limit: %v", err)
	}
	if _, err := s.Sbrk(PageSize); err == nil {
		t.Error("Sbrk beyond Config.Limit accepted")
	}
	// A limit below the reserve is rejected at construction.
	if _, err := NewSpace(Config{Limit: DefaultReserve - PageSize}); err == nil {
		t.Error("Limit below the reserve accepted")
	}
}
