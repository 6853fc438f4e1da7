// Package prog models the programs HeapTherapy+ protects: functions,
// call sites, loops, branches, and heap/memory operations, executed by
// a deterministic interpreter over the simulated heap.
//
// The paper instruments C programs with an LLVM pass and runs them
// natively (online) or under Valgrind (offline analysis). Here the same
// program AST runs against pluggable heap backends: the raw allocator
// (native execution), the shadow-memory analysis heap (offline patch
// generation), or the defended allocator (online protection). The
// interpreter maintains the thread-local calling-context value V with
// the save/restore discipline described in package encoding, so
// allocation-time CCIDs are bit-identical across backends — which is
// precisely what lets patches generated offline match buffers online.
package prog

import (
	"encoding/binary"
	"fmt"
)

// Value is a runtime value: a byte string with optional shadow state.
// Scalars (addresses, lengths, flags) are 8-byte little-endian values.
// In analysis mode, Valid carries one validity bit per data bit
// (V-bits, stored as a mask byte per data byte) and Origin carries the
// per-byte origin tag used to trace uninitialized data back to its
// allocation (Memcheck-style origin tracking).
type Value struct {
	// Bytes is the data.
	Bytes []byte
	// Valid holds a V-bit mask per byte (0xFF = fully initialized).
	// A nil Valid means fully valid: native and defended execution
	// never allocate shadow.
	Valid []byte
	// Origin holds a per-byte origin tag (0 = none). Origins are
	// allocated by the shadow heap and map to allocation sites.
	Origin []uint32
}

// Scalar builds a fully-valid 8-byte scalar value.
func Scalar(v uint64) Value {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return Value{Bytes: b}
}

// Uint returns the value's scalar interpretation: the first 8 bytes,
// little endian; missing bytes read as zero.
func (v Value) Uint() uint64 {
	if len(v.Bytes) >= 8 {
		return binary.LittleEndian.Uint64(v.Bytes)
	}
	var out uint64
	for i, b := range v.Bytes {
		out |= uint64(b) << (8 * i)
	}
	return out
}

// Len returns the byte length.
func (v Value) Len() int { return len(v.Bytes) }

// FullyValid reports whether every bit of the value is initialized.
func (v Value) FullyValid() bool {
	if v.Valid == nil {
		return true
	}
	for _, m := range v.Valid {
		if m != 0xFF {
			return false
		}
	}
	return true
}

// FirstInvalid returns the index of the first byte with any invalid
// bit, or -1 if fully valid.
func (v Value) FirstInvalid() int {
	if v.Valid == nil {
		return -1
	}
	for i, m := range v.Valid {
		if m != 0xFF {
			return i
		}
	}
	return -1
}

// InvalidOrigin returns the origin tag of the first invalid byte, or 0.
func (v Value) InvalidOrigin() uint32 {
	i := v.FirstInvalid()
	if i < 0 || v.Origin == nil || i >= len(v.Origin) {
		return 0
	}
	return v.Origin[i]
}

// Slice returns a copy of the value restricted to [off, off+n),
// preserving shadow state. Out-of-range portions are dropped.
func (v Value) Slice(off, n int) Value {
	if off < 0 || off >= len(v.Bytes) {
		return Value{}
	}
	end := off + n
	if end > len(v.Bytes) {
		end = len(v.Bytes)
	}
	out := Value{Bytes: append([]byte(nil), v.Bytes[off:end]...)}
	if v.Valid != nil && off < len(v.Valid) {
		ve := end
		if ve > len(v.Valid) {
			ve = len(v.Valid)
		}
		out.Valid = append([]byte(nil), v.Valid[off:ve]...)
		for len(out.Valid) < len(out.Bytes) {
			out.Valid = append(out.Valid, 0xFF)
		}
	}
	if v.Origin != nil && off < len(v.Origin) {
		oe := end
		if oe > len(v.Origin) {
			oe = len(v.Origin)
		}
		out.Origin = append([]uint32(nil), v.Origin[off:oe]...)
		for len(out.Origin) < len(out.Bytes) {
			out.Origin = append(out.Origin, 0)
		}
	}
	return out
}

// View returns the value restricted to [off, off+n) without copying:
// the result borrows v's backing arrays. Out-of-range portions are
// dropped. Backends treat missing Valid/Origin entries as fully valid
// with no origin, so truncated shadow slices preserve Slice's padding
// semantics. Callers must not mutate the result or use it after
// writing to v; both engines use it to pass store operands to
// backends without a per-store allocation.
func (v Value) View(off, n int) Value {
	if off < 0 || off >= len(v.Bytes) {
		return Value{}
	}
	end := off + n
	if end > len(v.Bytes) {
		end = len(v.Bytes)
	}
	out := Value{Bytes: v.Bytes[off:end]}
	if v.Valid != nil && off < len(v.Valid) {
		ve := end
		if ve > len(v.Valid) {
			ve = len(v.Valid)
		}
		out.Valid = v.Valid[off:ve]
	}
	if v.Origin != nil && off < len(v.Origin) {
		oe := end
		if oe > len(v.Origin) {
			oe = len(v.Origin)
		}
		out.Origin = v.Origin[off:oe]
	}
	return out
}

// Clone deep-copies the value.
func (v Value) Clone() Value {
	out := Value{Bytes: append([]byte(nil), v.Bytes...)}
	if v.Valid != nil {
		out.Valid = append([]byte(nil), v.Valid...)
	}
	if v.Origin != nil {
		out.Origin = append([]uint32(nil), v.Origin...)
	}
	return out
}

// scalarShadow summarizes the shadow of the scalar (first 8) bytes:
// whether all their bits are valid and the origin of the first invalid
// byte. Scalar arithmetic propagates shadow at this granularity, which
// matches how Memcheck treats register values.
func (v Value) scalarShadow() (valid bool, origin uint32) {
	if v.Valid == nil {
		return true, 0
	}
	n := len(v.Valid)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if v.Valid[i] != 0xFF {
			o := uint32(0)
			if v.Origin != nil && i < len(v.Origin) {
				o = v.Origin[i]
			}
			return false, o
		}
	}
	return true, 0
}

// invalidScalar builds an 8-byte scalar marked fully invalid with the
// given origin; the bits carry the computed data so execution can
// continue past warnings (Valgrind's behaviour).
func invalidScalar(data uint64, origin uint32) Value {
	v := Scalar(data)
	v.Valid = make([]byte, 8)
	if origin != 0 {
		v.Origin = make([]uint32, 8)
		for i := range v.Origin {
			v.Origin[i] = origin
		}
	}
	return v
}

// combineScalar applies binary-operation shadow semantics: the result
// is valid only if both operands' scalar parts are valid; otherwise it
// inherits the first invalid operand's origin.
func combineScalar(result uint64, a, b Value) Value {
	av, ao := a.scalarShadow()
	bv, bo := b.scalarShadow()
	if av && bv {
		return Scalar(result)
	}
	origin := ao
	if av {
		origin = bo
	}
	return invalidScalar(result, origin)
}

func (v Value) String() string {
	if len(v.Bytes) <= 8 {
		return fmt.Sprintf("%#x", v.Uint())
	}
	return fmt.Sprintf("bytes[%d]", len(v.Bytes))
}
