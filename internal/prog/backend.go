package prog

import (
	"fmt"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
)

// UseKind classifies how a value is being used, for V-bit checking in
// analysis mode. Following Section V of the paper, validity is checked
// only at these use points — not at loads — so padding-induced
// uninitialized copies (Figure 4) never raise false positives.
type UseKind uint8

// Use points.
const (
	// UseControlFlow is a branch or loop condition.
	UseControlFlow UseKind = iota + 1
	// UseAddress is using a value as (part of) a memory address.
	UseAddress
	// UseOutput is passing data to a system call (program output).
	UseOutput
)

func (k UseKind) String() string {
	switch k {
	case UseControlFlow:
		return "control-flow"
	case UseAddress:
		return "address"
	case UseOutput:
		return "output"
	default:
		return fmt.Sprintf("UseKind(%d)", uint8(k))
	}
}

// HeapBackend is the execution substrate the interpreter drives. Three
// implementations exist: the native backend below (raw allocator, no
// checking), the shadow-memory analysis backend (package shadow), and
// the online defended backend (package defense). The ccid argument is
// the calling-context ID current at the operation; allocation-type
// calls receive the allocation-time CCID the paper's patches key on.
//
// A wrapper that embeds a HeapBackend and overrides CheckUse must also
// return true from ObservesUse; otherwise the compiled engine may skip
// its CheckUse calls.
type HeapBackend interface {
	// Alloc services malloc/calloc/memalign/aligned_alloc. n is the
	// calloc element count (1 otherwise); align is 0 except for aligned
	// allocations.
	Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error)
	// Realloc services realloc; ccid is the CCID at the realloc call,
	// which becomes the buffer's new allocation context (Section V).
	Realloc(ccid, ptr, size uint64) (uint64, error)
	// Free services free(ptr).
	Free(ptr, ccid uint64) error
	// Load reads n bytes at addr.
	Load(addr, n, ccid uint64) (Value, error)
	BulkLoader
	// Store writes v.Bytes at addr.
	Store(addr uint64, v Value, ccid uint64) error
	// Memcpy copies n bytes from src to dst.
	Memcpy(dst, src, n, ccid uint64) error
	// Memset fills n bytes at addr with b.
	Memset(addr uint64, b byte, n, ccid uint64) error
	// CheckUse inspects a value at a use point (analysis mode only).
	CheckUse(v Value, use UseKind, ccid uint64)
	UseObserver
	// Cycles returns the backend's accumulated virtual-cycle cost (see
	// the cost model in cost.go).
	Cycles() uint64
}

// BulkLoader is the HeapBackend method behind every load of the
// compiled engine: LoadInto reuses dst's Bytes/Valid/Origin capacity
// instead of allocating fresh buffers per load, and must fill dst with
// the same bytes, validity and origins Load would return. The compiled
// engine uses it for register loads and for a scratch Value on
// transient loads (output emission), so its steady-state memory-op
// path allocates nothing. The tree-walker never does: it calls Load,
// so the differential suites check LoadInto against it.
type BulkLoader interface {
	LoadInto(dst *Value, addr, n, ccid uint64) error
}

// UseObserver is the HeapBackend method that declares whether CheckUse
// does anything at all. Backends that return false (native, defended)
// promise CheckUse is a no-op with no cycle or statistics effect, which
// lets the compiled engine elide the calls from hot paths. The
// tree-walker ignores it and issues every call, so the differential
// suites check the promise.
type UseObserver interface {
	ObservesUse() bool
}

// PatchProber is an optional HeapBackend extension exposing
// side-effect-free visibility into a defense patch table: ProbePatched
// answers "would an allocation through fn at ccid hit a patch?" without
// touching statistics or cycles, and PatchTableGeneration is the table's
// epoch (it changes whenever the table is re-established, e.g. on a
// fleet worker recycle or a rollout). The defended backend implements
// it and backend wrappers forward it, so tests can watch a rollout
// reach a worker. No engine calls it: the defended allocation path's
// own lookup is the one probe per allocation.
type PatchProber interface {
	PatchTableGeneration() uint64
	ProbePatched(fn heapsim.AllocFn, ccid uint64) bool
}

// NativeBackend runs programs directly against the raw allocator with
// no interposition: the paper's uninstrumented native execution, the
// baseline all overhead numbers normalize against.
type NativeBackend struct {
	under  heapsim.Allocator
	space  *mem.Space
	cycles uint64
}

var _ HeapBackend = (*NativeBackend)(nil)

// NewNativeBackend creates a native backend over a fresh boundary-tag
// heap.
func NewNativeBackend(space *mem.Space) (*NativeBackend, error) {
	h, err := heapsim.New(space)
	if err != nil {
		return nil, err
	}
	return &NativeBackend{under: h, space: space}, nil
}

// NewNativeBackendWithAllocator creates a native backend over an
// arbitrary allocator sharing the space — the uninstrumented baseline
// for allocator-agnostic comparisons (paper property (5), and the
// campaign oracle's native×pool cells).
func NewNativeBackendWithAllocator(space *mem.Space, under heapsim.Allocator) (*NativeBackend, error) {
	if under == nil {
		return nil, fmt.Errorf("prog: nil allocator")
	}
	return &NativeBackend{under: under, space: space}, nil
}

// Heap exposes the underlying boundary-tag heap when the backend runs
// over one (for statistics and integrity checks); nil when the backend
// was built over a different allocator.
func (nb *NativeBackend) Heap() *heapsim.Heap {
	h, _ := nb.under.(*heapsim.Heap)
	return h
}

// Allocator exposes the underlying allocator regardless of kind.
func (nb *NativeBackend) Allocator() heapsim.Allocator { return nb.under }

// Alloc implements HeapBackend.
func (nb *NativeBackend) Alloc(fn heapsim.AllocFn, _, n, size, align uint64) (uint64, error) {
	nb.cycles += CycAlloc
	switch fn {
	case heapsim.FnMalloc:
		return nb.under.Malloc(size)
	case heapsim.FnCalloc:
		return nb.under.Calloc(n, size)
	case heapsim.FnMemalign, heapsim.FnAlignedAlloc:
		return nb.under.Memalign(align, size)
	default:
		return 0, fmt.Errorf("prog: Alloc with unsupported function %v", fn)
	}
}

// Realloc implements HeapBackend.
func (nb *NativeBackend) Realloc(_, ptr, size uint64) (uint64, error) {
	nb.cycles += CycAlloc
	return nb.under.Realloc(ptr, size)
}

// Free implements HeapBackend.
func (nb *NativeBackend) Free(ptr, _ uint64) error {
	nb.cycles += CycFree
	return nb.under.Free(ptr)
}

// Load implements HeapBackend.
func (nb *NativeBackend) Load(addr, n, _ uint64) (Value, error) {
	nb.cycles += CycMemOp + n/CycBytesPerCycle
	b, err := nb.space.Read(addr, n)
	if err != nil {
		return Value{}, err
	}
	return Value{Bytes: b}, nil
}

// LoadInto implements HeapBackend, reusing dst's byte capacity.
func (nb *NativeBackend) LoadInto(dst *Value, addr, n, _ uint64) error {
	nb.cycles += CycMemOp + n/CycBytesPerCycle
	dst.Bytes = growValueBytes(dst.Bytes, n)
	dst.Valid = nil // native loads are always fully valid
	dst.Origin = nil
	return nb.space.ReadInto(addr, dst.Bytes)
}

// growValueBytes returns a length-n slice reusing b's capacity when
// possible; contents are unspecified.
func growValueBytes(b []byte, n uint64) []byte {
	if uint64(cap(b)) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// Store implements HeapBackend.
func (nb *NativeBackend) Store(addr uint64, v Value, _ uint64) error {
	nb.cycles += CycMemOp + uint64(len(v.Bytes))/CycBytesPerCycle
	return nb.space.Write(addr, v.Bytes)
}

// Memcpy implements HeapBackend.
func (nb *NativeBackend) Memcpy(dst, src, n, _ uint64) error {
	nb.cycles += CycMemOp + n/CycBytesPerCycle
	return nb.space.Memmove(dst, src, n)
}

// Memset implements HeapBackend.
func (nb *NativeBackend) Memset(addr uint64, b byte, n, _ uint64) error {
	nb.cycles += CycMemOp + n/CycBytesPerCycle
	return nb.space.Memset(addr, b, n)
}

// CheckUse implements HeapBackend: native execution checks nothing.
func (nb *NativeBackend) CheckUse(Value, UseKind, uint64) {}

// ObservesUse implements HeapBackend: native execution ignores use
// points, so engines may elide CheckUse calls entirely.
func (nb *NativeBackend) ObservesUse() bool { return false }

// Reset recycles the backend for a new execution after its space has
// been Reset: cycle accounting is cleared and the heap re-reserves its
// arena, so a recycled backend behaves bit-identically to a fresh one.
func (nb *NativeBackend) Reset() error {
	nb.cycles = 0
	switch u := nb.under.(type) {
	case interface{ Reset() error }:
		return u.Reset()
	case interface{ Reset() }:
		u.Reset()
		return nil
	default:
		return fmt.Errorf("prog: allocator %T does not support Reset", nb.under)
	}
}

// Cycles implements HeapBackend.
func (nb *NativeBackend) Cycles() uint64 { return nb.cycles }
