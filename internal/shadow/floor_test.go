package shadow

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
)

// baseFloored is a backend laid out as before the planes started at
// the arena: its floor is the space's base, so its planes cover the
// reserve from the first touch. It is the reference the arena-floored
// planes must match.
func baseFloored(t *testing.T) *Backend {
	t.Helper()
	b := newBackend(t, Config{})
	b.floor = b.space.Base()
	return b
}

// belowArena drives a workload that writes into the reserve under the
// arena: uninitialized heap bytes copied down there (the copy's source
// lies above the floor, its destination below), a partly valid store
// further down, heap growth that extends the planes upward, and reads
// of both back, checked at a use point. It returns the loaded values
// and the warnings.
func belowArena(t *testing.T, b *Backend) ([]prog.Value, []string) {
	t.Helper()
	arena := b.space.Base() + mem.DefaultReserve
	p := mustAlloc(t, b, heapsim.FnMalloc, 0xA11, 1, 64, 0)
	if err := b.Memcpy(arena-100, p, 8, 1); err != nil {
		t.Fatal(err)
	}
	low := arena - 3*mem.PageSize - 40
	v := prog.Value{Bytes: []byte{1, 2, 3, 4}, Valid: []byte{0xFF, 0x0F, 0, 0xFF}, Origin: []uint32{0, 1, 1, 0}}
	if err := b.Store(low, v, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // grow the heap, and the planes, upward
		mustAlloc(t, b, heapsim.FnMalloc, 0xB00+uint64(i), 1, 3*mem.PageSize, 0)
	}
	var vals []prog.Value
	for _, r := range []struct{ addr, n uint64 }{{arena - 100, 8}, {low, 4}, {arena - 2*mem.PageSize, 8}} {
		got, err := b.Load(r.addr, r.n, 3)
		if err != nil {
			t.Fatal(err)
		}
		b.CheckUse(got, prog.UseOutput, 3)
		vals = append(vals, got)
	}
	var warns []string
	for _, w := range b.Warnings() {
		warns = append(warns, w.String())
	}
	return vals, warns
}

// TestPlanesStartAtArena pins the shadow planes' extent: a fresh
// backend covers no more than its arena plus one page, a store below
// the arena lowers the floor to its page and keeps its V-bits and
// origins, everything reads and reports exactly as with planes from
// the space's base, and Reset after the floor moved restores every
// plane byte to the defaults.
func TestPlanesStartAtArena(t *testing.T) {
	b := newBackend(t, Config{})
	arena := b.space.Base() + mem.DefaultReserve
	if b.floor != arena {
		t.Fatalf("floor %#x, want the arena start %#x", b.floor, arena)
	}
	mustAlloc(t, b, heapsim.FnMalloc, 1, 1, 32, 0)
	if got, lim := uint64(len(b.access)), b.heap.Stats().ArenaBytes+mem.PageSize; got > lim {
		t.Fatalf("fresh planes cover %d bytes, more than the arena plus a page (%d)", got, lim)
	}
	b.space.Reset()
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}

	ref := baseFloored(t)
	wantVals, wantWarns := belowArena(t, ref)
	gotVals, gotWarns := belowArena(t, b)
	if !reflect.DeepEqual(gotVals, wantVals) {
		t.Fatalf("loads diverge from base-floored planes:\n got:  %+v\n want: %+v", gotVals, wantVals)
	}
	if !slices.Equal(gotWarns, wantWarns) {
		t.Fatalf("warnings diverge from base-floored planes:\n got:  %q\n want: %q", gotWarns, wantWarns)
	}
	if len(gotWarns) == 0 || gotVals[0].FullyValid() || gotVals[1].Valid[1] != 0x0F || gotVals[1].Origin[1] != 1 {
		t.Fatalf("the reserve lost its shadow: vals %+v, warnings %q", gotVals, gotWarns)
	}
	if want := arena - 4*mem.PageSize; b.floor != want {
		t.Fatalf("floor %#x, want the lowest touched page %#x", b.floor, want)
	}
	// The floored planes are the reference planes' tail.
	skip := b.floor - ref.floor
	if !slices.Equal(b.access, ref.access[skip:]) || !bytes.Equal(b.vmask, ref.vmask[skip:]) ||
		!slices.Equal(b.originT, ref.originT[skip:]) {
		t.Fatal("planes diverge from the base-floored planes over the covered range")
	}

	b.space.Reset()
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := range b.access {
		if !b.access[i] || b.vmask[i] != 0xFF || b.originT[i] != 0 {
			t.Fatalf("plane byte %#x not default after Reset: access %v vmask %#x origin %d",
				b.floor+uint64(i), b.access[i], b.vmask[i], b.originT[i])
		}
	}
	// A floor that moves after the run dirtied the arena must carry
	// the dirty watermark down with it: here nothing else widens it.
	mustAlloc(t, b, heapsim.FnMalloc, 2, 1, 32, 0)
	if err := b.Store(b.floor-3*mem.PageSize, prog.Value{Bytes: []byte{1}}, 4); err != nil {
		t.Fatal(err)
	}
	b.space.Reset()
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := range b.access {
		if !b.access[i] || b.vmask[i] != 0xFF || b.originT[i] != 0 {
			t.Fatalf("plane byte %#x not default after a late floor move and Reset", b.floor+uint64(i))
		}
	}
	// And the recycled backend still matches a fresh one.
	if got, want := violate(t, b), violate(t, newBackend(t, Config{})); !slices.Equal(got, want) {
		t.Fatalf("after Reset: %q, fresh: %q", got, want)
	}
}
