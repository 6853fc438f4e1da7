// Package mem implements a simulated byte-addressable address space with
// page-granularity protection, modeled after the portion of POSIX virtual
// memory semantics that HeapTherapy+ depends on: mprotect-style page
// protection and fault-on-access for inaccessible pages.
//
// The online defense generator in the paper places guard pages after
// vulnerable buffers and marks them PROT_NONE with mprotect(2); any
// overflowing access then faults. This package reproduces exactly those
// semantics over an in-process byte array: every load, store, and copy is
// checked against per-page protection bits, and violations surface as
// *FaultError values (the simulation's SIGSEGV).
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"heaptherapy/internal/telemetry"
)

// PageSize is the size of a virtual page in bytes. It matches the 4 KiB
// page size assumed by the paper's guard-page placement (Section VI) and
// its 36-bit page-frame encoding in the metadata word.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Prot is a page-protection bitmask, mirroring PROT_READ/PROT_WRITE.
type Prot uint8

// Protection bits. ProtNone (no bits set) makes a page inaccessible.
const (
	// ProtRead permits loads from the page.
	ProtRead Prot = 1 << iota
	// ProtWrite permits stores to the page.
	ProtWrite
)

// ProtNone marks a page wholly inaccessible, as used for guard pages.
const ProtNone Prot = 0

// ProtRW permits both loads and stores; the default for mapped memory.
const ProtRW = ProtRead | ProtWrite

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "---"
	case ProtRead:
		return "r--"
	case ProtWrite:
		return "-w-"
	case ProtRW:
		return "rw-"
	default:
		return fmt.Sprintf("Prot(%#x)", uint8(p))
	}
}

// AccessKind distinguishes the operation that caused a fault.
type AccessKind uint8

// Kinds of memory access.
const (
	// AccessRead is a load.
	AccessRead AccessKind = iota + 1
	// AccessWrite is a store.
	AccessWrite
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// ErrLimit reports a full space; Sbrk and out-of-memory errors wrap it.
var ErrLimit = errors.New("mem: segment limit reached")

// FaultError reports an access violation: the simulation's equivalent of
// SIGSEGV. The online defense relies on these faults to stop overflow
// attacks at the guard page.
type FaultError struct {
	// Addr is the first faulting address.
	Addr uint64
	// Kind is the access type that faulted.
	Kind AccessKind
	// Len is the length of the attempted access.
	Len uint64
	// Reason describes why the access faulted.
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("memory fault: %s of %d byte(s) at %#x: %s", e.Kind, e.Len, e.Addr, e.Reason)
}

// Space is a simulated address space. The space covers addresses
// [Base, Base+Size). Addresses below Base are never mapped, so address 0
// is always invalid (a nil pointer faults, as on a real machine).
//
// A Space grows upward via Sbrk, mimicking the classic Unix program
// break; the heap allocator in package heapsim builds its arena on top.
//
// Like an untouched page of a real mapping, the initial reserve costs
// nothing until something reaches it: it is mapped, ProtRW and zero,
// but has no bytes behind it. The first access or Mprotect below the
// arena backs the whole reserve with zeros, and Reset drops that
// backing again.
//
// Space is not safe for concurrent use; the interpreter in package prog
// is single-threaded per space, matching the paper's per-process view.
type Space struct {
	base  uint64
	lo    uint64 // lowest backed address: base, or base+DefaultReserve while the reserve is unbacked
	data  []byte // the bytes of [lo, End); data[0] is at lo
	prot  []Prot // one entry per page, indexed from base
	limit uint64 // maximum mapped size in bytes

	// spare is the reserve's backing that Reset dropped: spare[:reserve]
	// is zero and spare[reserve:] shares data's array, so backing the
	// reserve again allocates nothing. Nil when data's array moved.
	spare []byte

	// dirty has one bit per mapped page, set on every store and
	// protection change. Reset zeroes exactly the dirty pages, so the
	// cost of recycling a space is proportional to what an execution
	// actually touched, not to the address-space size. Loads never
	// dirty a page.
	dirty []uint64

	// tel, when non-nil, receives a counter increment and a trace event
	// per fault. It is consulted only on the refCheck slow path, so the
	// two-comparison fast path in check is unaffected.
	tel *telemetry.Scope
}

// Config controls Space construction.
type Config struct {
	// Limit caps the total mapped size in bytes (0 means DefaultLimit).
	Limit uint64
}

// The fixed layout of every space, and the default Config.Limit.
const (
	// DefaultBase is the lowest mapped address: the heap segment starts
	// at 1 MiB, so small addresses (including nil) always fault.
	DefaultBase = 1 << 20
	// DefaultReserve is the initial mapping: 1 MiB, page aligned.
	DefaultReserve = 1 << 20
	// DefaultLimit caps the simulated segment at 1 GiB.
	DefaultLimit = 1 << 30
)

// limit is the effective cap for this space.
func (c Config) limit() uint64 {
	if c.Limit == 0 {
		return DefaultLimit
	}
	return c.Limit
}

// NewSpace creates a simulated address space.
func NewSpace(cfg Config) (*Space, error) {
	if DefaultReserve > cfg.limit() {
		return nil, fmt.Errorf("mem: reserve %d exceeds limit %d", DefaultReserve, cfg.limit())
	}
	s := &Space{
		base:  DefaultBase,
		lo:    DefaultBase + DefaultReserve,
		prot:  make([]Prot, DefaultReserve/PageSize),
		limit: cfg.limit(),
		dirty: make([]uint64, (DefaultReserve/PageSize+63)/64),
	}
	for i := range s.prot {
		s.prot[i] = ProtRW
	}
	return s, nil
}

// Base returns the lowest mapped address.
func (s *Space) Base() uint64 { return s.base }

// End returns one past the highest mapped address (the current break).
func (s *Space) End() uint64 { return s.lo + uint64(len(s.data)) }

// Size returns the mapped size in bytes.
func (s *Space) Size() uint64 { return s.End() - s.base }

// SetTelemetry attaches a telemetry scope; every fault the space
// reports is then counted and traced. A nil scope detaches.
func (s *Space) SetTelemetry(tel *telemetry.Scope) { s.tel = tel }

// fault records one fault, when a telemetry scope is attached, as a
// CtrFaults increment plus an EvFault trace event. The space has no
// calling-context knowledge, so the event carries the access kind in
// the CCID field, the faulting address as the site, and the access
// length as the argument; layers above (the defense backend) attribute
// faults to contexts.
func (s *Space) fault(addr, n uint64, kind AccessKind) {
	if s.tel != nil {
		s.tel.Inc(telemetry.CtrFaults)
		s.tel.Event(telemetry.EvFault, uint64(kind), addr, n)
	}
}

// Sbrk grows the mapped region by n bytes (rounded up to a page) and
// returns the previous break address, which is the start of the newly
// mapped region. New pages are ProtRW and zero filled. After a Reset,
// regrowth reuses the retained backing capacity, which Reset left zero,
// so the steady-state recycle path allocates and clears nothing.
func (s *Space) Sbrk(n uint64) (uint64, error) {
	grow := roundUpPage(n)
	old := s.End()
	if s.Size()+grow > s.limitBytes() {
		return 0, fmt.Errorf("%w: sbrk(%d) exceeds %d", ErrLimit, n, s.limitBytes())
	}
	newLen := uint64(len(s.data)) + grow
	if uint64(cap(s.data)) >= newLen {
		s.data = s.data[:newLen]
	} else {
		s.data = append(s.data, make([]byte, grow)...)
		s.spare = nil // data's array moved
	}
	for i := uint64(0); i < grow/PageSize; i++ {
		s.prot = append(s.prot, ProtRW)
	}
	for uint64(len(s.dirty))*64 < uint64(len(s.prot)) {
		s.dirty = append(s.dirty, 0)
	}
	return old, nil
}

// limitBytes returns the maximum mapped size, from Config.Limit.
func (s *Space) limitBytes() uint64 { return s.limit }

// backed reports whether [addr, addr+n) lies in the backed range
// [lo, End), so data[addr-lo:] holds it. It is the raw accessors'
// range gate; a miss goes to reach.
func (s *Space) backed(addr, n uint64) bool {
	off := addr - s.lo
	return off <= uint64(len(s.data)) && n <= uint64(len(s.data))-off
}

// reach is the raw accessors' slow path: a range that is mapped but
// reaches below lo backs the reserve; anything else is unmapped.
func (s *Space) reach(addr, n uint64, kind AccessKind) error {
	if !s.Contains(addr, n) {
		return &FaultError{Addr: addr, Kind: kind, Len: n, Reason: "unmapped address"}
	}
	s.back()
	return nil
}

// back gives the unbacked reserve its zero bytes and moves lo to base.
// data's array moves, so borrowed views are invalidated as by Sbrk.
// Callers call it only while lo is above base.
func (s *Space) back() {
	gap := s.lo - s.base
	n := gap + uint64(len(s.data))
	if s.spare != nil {
		s.data = s.spare[:n]
	} else {
		d := make([]byte, n, gap+uint64(cap(s.data)))
		copy(d[gap:], s.data)
		s.data = d
	}
	s.spare = nil
	s.lo = s.base
}

// markDirty records that the pages overlapping [addr, addr+n) were
// mutated. Callers must have validated the range (it is invoked only
// after a successful check or Contains). The common small store dirties
// one page with a single OR, so the hot store path pays almost nothing
// for resettability.
func (s *Space) markDirty(addr, n uint64) {
	if n == 0 {
		return
	}
	first := (addr - s.base) >> PageShift
	last := (addr + n - 1 - s.base) >> PageShift
	for p := first; p <= last; p++ {
		s.dirty[p>>6] |= 1 << (p & 63)
	}
}

// Reset returns the space to its post-construction state: the break
// back at the initial reserve, the reserve unbacked and every page
// ProtRW. Only pages marked dirty are zeroed and re-protected, so the
// cost is proportional to what the previous execution mutated — a worker context serving small requests
// recycles in microseconds regardless of the space's configured size.
// Memory mapped beyond the initial reserve is logically unmapped; its
// backing capacity, and the reserve's if it was backed, is retained
// zero, which keeps the recycle-then-regrow path allocation-free.
// Borrowed views (RawView) taken before a Reset must not be used
// afterwards.
func (s *Space) Reset() {
	const resPages = DefaultReserve / PageSize
	unbacked := (s.lo - s.base) / PageSize
	for w, word := range s.dirty {
		if word == 0 {
			continue
		}
		s.dirty[w] = 0
		pageBase := uint64(w) * 64
		for word != 0 {
			p := pageBase + uint64(bits.TrailingZeros64(word))
			word &= word - 1
			off := (p - unbacked) * PageSize // unbacked pages are never dirty
			clear(s.data[off : off+PageSize])
			if p < resPages {
				s.prot[p] = ProtRW
			}
		}
	}
	if s.lo == s.base {
		s.spare = s.data[:0]
		s.data = s.data[DefaultReserve:DefaultReserve]
		s.lo = s.base + DefaultReserve
	} else {
		s.data = s.data[:0]
	}
	s.prot = s.prot[:resPages]
	if words := int((resPages + 63) / 64); len(s.dirty) > words {
		s.dirty = s.dirty[:words]
	}
}

// Contains reports whether the address range [addr, addr+n) is mapped.
func (s *Space) Contains(addr, n uint64) bool {
	if addr < s.base {
		return false
	}
	end := addr + n
	return end >= addr && end <= s.End()
}

// Mprotect sets the protection of every page overlapping
// [addr, addr+n). Both addr and n must be page aligned, matching
// mprotect(2) semantics.
func (s *Space) Mprotect(addr, n uint64, p Prot) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("mem: mprotect address %#x is not page aligned", addr)
	}
	if n%PageSize != 0 {
		return fmt.Errorf("mem: mprotect length %d is not page aligned", n)
	}
	if !s.Contains(addr, n) {
		return fmt.Errorf("mem: mprotect range [%#x,%#x) is not mapped", addr, addr+n)
	}
	if addr < s.lo {
		s.back() // an unbacked page may not be dirty
	}
	first := (addr - s.base) / PageSize
	for i := uint64(0); i < n/PageSize; i++ {
		s.prot[first+i] = p
	}
	// Protection is part of resettable state: a page whose protection
	// changed must be restored to ProtRW on Reset.
	s.markDirty(addr, n)
	return nil
}

// ProtAt returns the protection of the page containing addr.
func (s *Space) ProtAt(addr uint64) (Prot, error) {
	if !s.Contains(addr, 1) {
		return 0, fmt.Errorf("mem: address %#x is not mapped", addr)
	}
	return s.prot[(addr-s.base)/PageSize], nil
}

// check validates an access of n bytes at addr for the given kind and
// returns a *FaultError pinpointing the first offending address. The
// common case — an in-bounds access above lo confined to one permitted
// page — is decided with two comparisons; everything else falls
// through to refCheck, whose per-page walk is also the reference
// implementation the differential tests compare against. A permitted
// access that reaches below lo backs the reserve before it returns.
// A zero-length access touches no byte, so it passes anywhere, as in
// refCheck, and backs nothing; the accessors, checked and raw, return
// before indexing data for it, since addr may lie outside [lo, End].
func (s *Space) check(addr, n uint64, kind AccessKind) error {
	if n == 0 {
		return nil
	}
	if addr >= s.lo {
		end := addr + n
		if end > addr && end <= s.End() {
			page := (addr - s.base) >> PageShift
			if (end-1-s.base)>>PageShift == page {
				need := ProtRead
				if kind == AccessWrite {
					need = ProtWrite
				}
				if s.prot[page]&need != 0 {
					return nil
				}
			}
		}
	}
	if err := s.refCheck(addr, n, kind); err != nil {
		return err
	}
	if addr < s.lo {
		s.back()
	}
	return nil
}

// refCheck is the naive predecessor of check: the full multi-page
// validation walk. It is the only place faults are counted, so the
// fast path above cannot perturb fault accounting.
func (s *Space) refCheck(addr, n uint64, kind AccessKind) error {
	if n == 0 {
		return nil
	}
	if addr+n < addr { // overflow
		s.fault(addr, n, kind)
		return &FaultError{Addr: addr, Kind: kind, Len: n, Reason: "address range wraps"}
	}
	if addr < s.base || addr >= s.End() {
		s.fault(addr, n, kind)
		return &FaultError{Addr: addr, Kind: kind, Len: n, Reason: "unmapped address"}
	}
	need := ProtRead
	if kind == AccessWrite {
		need = ProtWrite
	}
	// Walk pages in address order so the FIRST offending page decides
	// the fault, the way an MMU would: an access that crosses a
	// guard page on its way off the mapping faults on the guard page,
	// not at the break — which is what lets the defense layer classify
	// a huge patched overread as contained rather than wild.
	firstPage := (addr - s.base) / PageSize
	lastPage := (addr + n - 1 - s.base) / PageSize
	for p := firstPage; p <= lastPage; p++ {
		if p >= uint64(len(s.prot)) {
			faultAddr := s.base + p*PageSize
			s.fault(faultAddr, n, kind)
			return &FaultError{Addr: faultAddr, Kind: kind, Len: n, Reason: "unmapped address"}
		}
		if s.prot[p]&need == 0 {
			faultAddr := s.base + p*PageSize
			if faultAddr < addr {
				faultAddr = addr
			}
			s.fault(faultAddr, n, kind)
			return &FaultError{
				Addr: faultAddr, Kind: kind, Len: n,
				Reason: fmt.Sprintf("page protection %s forbids %s", s.prot[p], kind),
			}
		}
	}
	return nil
}

// CheckRead validates that [addr, addr+n) is readable.
func (s *Space) CheckRead(addr, n uint64) error { return s.check(addr, n, AccessRead) }

// Read copies n bytes starting at addr into a fresh slice.
func (s *Space) Read(addr, n uint64) ([]byte, error) {
	if n == 0 {
		return []byte{}, nil
	}
	if err := s.check(addr, n, AccessRead); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, s.data[addr-s.lo:])
	return out, nil
}

// ReadInto copies len(dst) bytes starting at addr into dst.
func (s *Space) ReadInto(addr uint64, dst []byte) error {
	n := uint64(len(dst))
	if n == 0 {
		return nil
	}
	if err := s.check(addr, n, AccessRead); err != nil {
		return err
	}
	copy(dst, s.data[addr-s.lo:])
	return nil
}

// Write copies src into memory starting at addr.
func (s *Space) Write(addr uint64, src []byte) error {
	n := uint64(len(src))
	if n == 0 {
		return nil
	}
	if err := s.check(addr, n, AccessWrite); err != nil {
		return err
	}
	s.markDirty(addr, n)
	copy(s.data[addr-s.lo:], src)
	return nil
}

// Memset fills [addr, addr+n) with b.
func (s *Space) Memset(addr uint64, b byte, n uint64) error {
	if n == 0 {
		return nil
	}
	if err := s.check(addr, n, AccessWrite); err != nil {
		return err
	}
	s.markDirty(addr, n)
	fillBytes(s.data[addr-s.lo:addr-s.lo+n], b)
	return nil
}

// fillBytes fills dst with b. Zero fills compile to a memclr; nonzero
// fills seed one byte and double it with copy, which runs at memmove
// bandwidth instead of a byte loop.
func fillBytes(dst []byte, b byte) {
	if b == 0 {
		clear(dst)
		return
	}
	if len(dst) == 0 {
		return
	}
	dst[0] = b
	for filled := 1; filled < len(dst); filled *= 2 {
		copy(dst[filled:], dst[:filled])
	}
}

// Memmove copies n bytes from src to dst with memmove overlap semantics.
func (s *Space) Memmove(dst, src, n uint64) error {
	if n == 0 {
		return nil
	}
	if err := s.check(src, n, AccessRead); err != nil {
		return err
	}
	if err := s.check(dst, n, AccessWrite); err != nil {
		return err
	}
	s.markDirty(dst, n)
	copy(s.data[dst-s.lo:dst-s.lo+n], s.data[src-s.lo:src-s.lo+n])
	return nil
}

// load64 reads a word without checking protection; callers must have
// validated the access.
func (s *Space) load64(addr uint64) uint64 {
	off := addr - s.lo
	return binary.LittleEndian.Uint64(s.data[off : off+8])
}

func (s *Space) store64(addr, v uint64) {
	s.markDirty(addr, 8)
	off := addr - s.lo
	binary.LittleEndian.PutUint64(s.data[off:off+8], v)
}

// RawLoad64 reads a 64-bit word ignoring page protection. It is used by
// the allocator and the defense library for their own metadata, which a
// real implementation would access through unprotected mappings.
func (s *Space) RawLoad64(addr uint64) (uint64, error) {
	if !s.backed(addr, 8) {
		if err := s.reach(addr, 8, AccessRead); err != nil {
			return 0, err
		}
	}
	return s.load64(addr), nil
}

// BackedLoad64 is RawLoad64's fast half, small enough to inline into
// hot metadata readers such as the allocator's chunk-header loads: it
// returns the word at addr and true when [addr, addr+8) is backed, and
// false otherwise, leaving the caller to take RawLoad64, which backs
// the reserve or faults.
func (s *Space) BackedLoad64(addr uint64) (uint64, bool) {
	if !s.backed(addr, 8) {
		return 0, false
	}
	return s.load64(addr), true
}

// RawStore64 writes a 64-bit word ignoring page protection.
func (s *Space) RawStore64(addr, v uint64) error {
	if !s.backed(addr, 8) {
		if err := s.reach(addr, 8, AccessWrite); err != nil {
			return err
		}
	}
	s.store64(addr, v)
	return nil
}

// RawWrite copies src ignoring page protection.
func (s *Space) RawWrite(addr uint64, src []byte) error {
	n := uint64(len(src))
	if n == 0 {
		return nil
	}
	if !s.backed(addr, n) {
		if err := s.reach(addr, n, AccessWrite); err != nil {
			return err
		}
	}
	s.markDirty(addr, n)
	copy(s.data[addr-s.lo:], src)
	return nil
}

// RawMemset fills memory ignoring page protection.
func (s *Space) RawMemset(addr uint64, b byte, n uint64) error {
	if n == 0 {
		return nil
	}
	if !s.backed(addr, n) {
		if err := s.reach(addr, n, AccessWrite); err != nil {
			return err
		}
	}
	s.markDirty(addr, n)
	fillBytes(s.data[addr-s.lo:addr-s.lo+n], b)
	return nil
}

// RawWriteByte stores one byte ignoring page protection: the per-byte
// slow paths in package shadow land individual bytes in red zones and
// freed blocks, and must not pay a slice header per byte to do so.
func (s *Space) RawWriteByte(addr uint64, v byte) error {
	if !s.backed(addr, 1) {
		if err := s.reach(addr, 1, AccessWrite); err != nil {
			return err
		}
	}
	s.dirty[(addr-s.base)>>(PageShift+6)] |= 1 << (((addr - s.base) >> PageShift) & 63)
	s.data[addr-s.lo] = v
	return nil
}

// RawMemmove copies n bytes from src to dst with memmove overlap
// semantics, ignoring page protection.
func (s *Space) RawMemmove(dst, src, n uint64) error {
	if n == 0 {
		return nil
	}
	if !s.backed(src, n) {
		if err := s.reach(src, n, AccessRead); err != nil {
			return err
		}
	}
	if !s.backed(dst, n) {
		if err := s.reach(dst, n, AccessWrite); err != nil {
			return err
		}
	}
	s.markDirty(dst, n)
	copy(s.data[dst-s.lo:dst-s.lo+n], s.data[src-s.lo:src-s.lo+n])
	return nil
}

// RawView returns a borrowed slice aliasing [addr, addr+n), ignoring
// page protection, for subsystems (allocator metadata, shadow planes,
// the sealed patch table) that implement their own access control. The
// slice shares the space's backing store and is invalidated by the next
// Sbrk and by the first access below the arena (either may move the
// backing array).
func (s *Space) RawView(addr, n uint64) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if !s.backed(addr, n) {
		if err := s.reach(addr, n, AccessRead); err != nil {
			return nil, err
		}
	}
	off := addr - s.lo
	return s.data[off : off+n : off+n], nil
}

// AsFault extracts a *FaultError from err if present.
func AsFault(err error) (*FaultError, bool) {
	for err != nil {
		if fe, ok := err.(*FaultError); ok {
			return fe, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil, false
		}
		err = u.Unwrap()
	}
	return nil, false
}

// roundUpPage rounds n up to the next multiple of PageSize.
func roundUpPage(n uint64) uint64 {
	return (n + PageSize - 1) &^ uint64(PageSize-1)
}

// PageAlignUp rounds n up to the next multiple of PageSize.
func PageAlignUp(n uint64) uint64 { return roundUpPage(n) }
