package defense

import (
	"fmt"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// Backend adapts the Defender to the interpreter's HeapBackend
// interface: allocation traffic flows through the defense layer, and
// ordinary loads and stores run against the protected address space,
// where a guard-page hit faults exactly like SIGSEGV under the real
// system.
//
// Concurrency contract (see Defender): Backend's cycle accumulator —
// like every other piece of its state — is unsynchronized mutable
// state, so a Backend must be owned by exactly one goroutine at a
// time. Sharing a Backend between interpreter threads is fine only
// under the cooperative single-OS-thread scheduler (prog.RunThreads);
// true parallelism requires one Backend per goroutine, with an
// immutable SealedTable as the only shared structure — the fleet
// runtime's layout, locked in by TestSealedTableCrossWorkerRace.
type Backend struct {
	def    *Defender
	space  *mem.Space
	cycles uint64
	// check is the policy's per-access hook (ShadowBound's bounds
	// check), bound once at construction; nil for families without one
	// — the HT fast path pays a single nil comparison.
	check func(d *Defender, addr, n, ccid uint64) error
}

var _ prog.HeapBackend = (*Backend)(nil)

// NewBackend builds a defended execution backend in space.
func NewBackend(space *mem.Space, cfg Config) (*Backend, error) {
	d, err := New(space, cfg)
	if err != nil {
		return nil, err
	}
	return &Backend{def: d, space: space, check: d.ops.access}, nil
}

// Defender exposes the defense layer (for statistics).
func (b *Backend) Defender() *Defender { return b.def }

// Alloc implements prog.HeapBackend.
func (b *Backend) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	switch fn {
	case heapsim.FnMalloc:
		return b.def.Malloc(ccid, size)
	case heapsim.FnCalloc:
		return b.def.Calloc(ccid, n, size)
	case heapsim.FnMemalign, heapsim.FnAlignedAlloc:
		return b.def.Memalign(ccid, align, size)
	default:
		return 0, fmt.Errorf("defense: Alloc with unsupported function %v", fn)
	}
}

// Realloc implements prog.HeapBackend.
func (b *Backend) Realloc(ccid, ptr, size uint64) (uint64, error) {
	return b.def.Realloc(ccid, ptr, size)
}

// Free implements prog.HeapBackend; the free's CCID flows to telemetry
// so double-free rejections are attributed to the freeing context.
func (b *Backend) Free(ptr, ccid uint64) error {
	return b.def.FreeCtx(ptr, ccid)
}

// Load implements prog.HeapBackend; guard pages fault here, and the
// policy's access hook (when the family has one) rejects out-of-bounds
// ranges before the space is touched.
func (b *Backend) Load(addr, n, ccid uint64) (prog.Value, error) {
	b.cycles += prog.CycMemOp + n/prog.CycBytesPerCycle
	if b.check != nil {
		if err := b.check(b.def, addr, n, ccid); err != nil {
			return prog.Value{}, err
		}
	}
	data, err := b.space.Read(addr, n)
	if err != nil {
		b.def.noteAccessFault(err, ccid)
		return prog.Value{}, err
	}
	return prog.Value{Bytes: data}, nil
}

// LoadInto implements prog.HeapBackend, reusing dst's byte capacity;
// guard pages fault here exactly as in Load.
func (b *Backend) LoadInto(dst *prog.Value, addr, n, ccid uint64) error {
	b.cycles += prog.CycMemOp + n/prog.CycBytesPerCycle
	if b.check != nil {
		if err := b.check(b.def, addr, n, ccid); err != nil {
			return err
		}
	}
	if uint64(cap(dst.Bytes)) >= n {
		dst.Bytes = dst.Bytes[:n]
	} else {
		dst.Bytes = make([]byte, n)
	}
	dst.Valid = nil // defended loads carry no shadow
	dst.Origin = nil
	err := b.space.ReadInto(addr, dst.Bytes)
	b.def.noteAccessFault(err, ccid)
	return err
}

// Store implements prog.HeapBackend; guard pages fault here.
func (b *Backend) Store(addr uint64, v prog.Value, ccid uint64) error {
	b.cycles += prog.CycMemOp + uint64(len(v.Bytes))/prog.CycBytesPerCycle
	if b.check != nil {
		if err := b.check(b.def, addr, uint64(len(v.Bytes)), ccid); err != nil {
			return err
		}
	}
	err := b.space.Write(addr, v.Bytes)
	b.def.noteAccessFault(err, ccid)
	return err
}

// Memcpy implements prog.HeapBackend.
func (b *Backend) Memcpy(dst, src, n, ccid uint64) error {
	b.cycles += prog.CycMemOp + n/prog.CycBytesPerCycle
	if b.check != nil {
		if err := b.check(b.def, src, n, ccid); err != nil {
			return err
		}
		if err := b.check(b.def, dst, n, ccid); err != nil {
			return err
		}
	}
	err := b.space.Memmove(dst, src, n)
	b.def.noteAccessFault(err, ccid)
	return err
}

// Memset implements prog.HeapBackend.
func (b *Backend) Memset(addr uint64, c byte, n, ccid uint64) error {
	b.cycles += prog.CycMemOp + n/prog.CycBytesPerCycle
	if b.check != nil {
		if err := b.check(b.def, addr, n, ccid); err != nil {
			return err
		}
	}
	err := b.space.Memset(addr, c, n)
	b.def.noteAccessFault(err, ccid)
	return err
}

// CheckUse implements prog.HeapBackend: online execution performs no
// V-bit checking (that is offline analysis work).
func (b *Backend) CheckUse(prog.Value, prog.UseKind, uint64) {}

// ObservesUse implements prog.HeapBackend: defended execution ignores
// use points, so engines may elide CheckUse calls entirely.
func (b *Backend) ObservesUse() bool { return false }

// PatchTableGeneration implements prog.PatchProber (see
// Defender.TableGeneration).
func (b *Backend) PatchTableGeneration() uint64 { return b.def.TableGeneration() }

// ProbePatched implements prog.PatchProber (see Defender.ProbePatched).
func (b *Backend) ProbePatched(fn heapsim.AllocFn, ccid uint64) bool {
	return b.def.ProbePatched(fn, ccid)
}

// Cycles implements prog.HeapBackend.
func (b *Backend) Cycles() uint64 { return b.cycles + b.def.Cycles() }

// Reset recycles the backend for a new execution after its space has
// been Reset: cycle accounting is cleared and the Defender is reset
// (see Defender.Reset for what that entails and for the caller's
// obligations around custom allocators).
func (b *Backend) Reset() error {
	b.cycles = 0
	return b.def.Reset()
}

// ResetPatches recycles the backend for a new execution under a new
// patch set (see Defender.ResetPatches).
func (b *Backend) ResetPatches(set *patch.Set) error {
	b.cycles = 0
	return b.def.ResetPatches(set)
}

// SwapSharedTable re-points the backend's Defender at a new sealed
// table (see Defender.SwapSharedTable for the contract).
func (b *Backend) SwapSharedTable(t *SealedTable) error {
	return b.def.SwapSharedTable(t)
}

// NewBackendWithAllocator builds a defended execution backend over a
// caller-supplied underlying allocator (see NewWithAllocator).
func NewBackendWithAllocator(space *mem.Space, under heapsim.Allocator, cfg Config) (*Backend, error) {
	d, err := NewWithAllocator(space, under, cfg)
	if err != nil {
		return nil, err
	}
	return &Backend{def: d, space: space, check: d.ops.access}, nil
}
