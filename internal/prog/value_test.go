package prog

import (
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	f := func(x uint64) bool { return Scalar(x).Uint() == x }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUintShortValue(t *testing.T) {
	v := Value{Bytes: []byte{0x12, 0x34}}
	if got := v.Uint(); got != 0x3412 {
		t.Errorf("Uint = %#x, want 0x3412", got)
	}
	if len(Scalar(5).Bytes) != 8 {
		t.Error("Scalar length != 8")
	}
	var empty Value
	if empty.Uint() != 0 {
		t.Error("empty value Uint != 0")
	}
}

func TestFullyValid(t *testing.T) {
	v := Scalar(1)
	if !v.FullyValid() {
		t.Error("Scalar not fully valid")
	}
	if v.FirstInvalid() != -1 {
		t.Error("Scalar has invalid byte")
	}
	v.Valid = []byte{0xFF, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if v.FullyValid() {
		t.Error("value with a cleared V-bit reported fully valid")
	}
	if got := v.FirstInvalid(); got != 1 {
		t.Errorf("FirstInvalid = %d, want 1", got)
	}
}

func TestInvalidOrigin(t *testing.T) {
	v := invalidScalar(42, 7)
	if v.Uint() != 42 {
		t.Error("invalidScalar lost the data bits")
	}
	if v.FullyValid() {
		t.Error("invalidScalar is valid")
	}
	if got := v.InvalidOrigin(); got != 7 {
		t.Errorf("InvalidOrigin = %d, want 7", got)
	}
	if Scalar(1).InvalidOrigin() != 0 {
		t.Error("valid value has nonzero origin")
	}
}

func TestCombineScalarPropagation(t *testing.T) {
	a := Scalar(10)
	b := invalidScalar(20, 3)
	r := combineScalar(30, a, b)
	if r.Uint() != 30 {
		t.Errorf("result = %d, want 30", r.Uint())
	}
	if r.FullyValid() {
		t.Error("valid OP invalid produced valid result")
	}
	if r.InvalidOrigin() != 3 {
		t.Errorf("origin = %d, want 3 (from b)", r.InvalidOrigin())
	}

	r2 := combineScalar(1, b, a)
	if r2.InvalidOrigin() != 3 {
		t.Errorf("origin = %d, want 3 (from a-position operand)", r2.InvalidOrigin())
	}

	r3 := combineScalar(2, Scalar(1), Scalar(2))
	if !r3.FullyValid() {
		t.Error("valid OP valid produced invalid result")
	}
}

// TestSlice: View restricts a value to a byte range, shadow included,
// borrowing the original's arrays and dropping out-of-range portions.
func TestSlice(t *testing.T) {
	v := Value{
		Bytes:  []byte{1, 2, 3, 4},
		Valid:  []byte{0xFF, 0x00, 0xFF, 0xFF},
		Origin: []uint32{0, 9, 0, 0},
	}
	s := v.View(1, 2)
	if len(s.Bytes) != 2 || s.Bytes[0] != 2 || s.Bytes[1] != 3 {
		t.Errorf("View bytes = %v, want [2 3]", s.Bytes)
	}
	if s.FullyValid() {
		t.Error("view lost invalid shadow")
	}
	if s.InvalidOrigin() != 9 {
		t.Errorf("view origin = %d, want 9", s.InvalidOrigin())
	}
	// A view borrows the original's bytes.
	s.Bytes[0] = 99
	if v.Bytes[1] != 99 {
		t.Error("View copied the original")
	}

	if got := v.View(10, 2); len(got.Bytes) != 0 {
		t.Error("out-of-range view is non-empty")
	}
	if got := v.View(2, 100); len(got.Bytes) != 2 {
		t.Errorf("over-long view length = %d, want 2", len(got.Bytes))
	}
}

func TestClone(t *testing.T) {
	v := invalidScalar(5, 2)
	c := v.Clone()
	c.Bytes[0] = 0xAA
	c.Valid[0] = 0xFF
	c.Origin[0] = 1
	if v.Bytes[0] == 0xAA || v.Valid[0] == 0xFF || v.Origin[0] == 1 {
		t.Error("Clone aliases the original")
	}
}

func TestScalarShadowWindow(t *testing.T) {
	// Only the first 8 bytes matter for scalar shadow.
	v := Value{
		Bytes: make([]byte, 16),
		Valid: append(mask8(0xFF), 0x00), // byte 8 invalid
	}
	valid, _ := v.scalarShadow()
	if !valid {
		t.Error("scalar shadow should consider only first 8 bytes... which are valid")
	}
}

func mask8(b byte) []byte {
	out := make([]byte, 8)
	for i := range out {
		out[i] = b
	}
	return out
}
