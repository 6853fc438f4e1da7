package shadow

import (
	"fmt"

	"heaptherapy/internal/prog"
)

// accessCost is the virtual-cycle charge for one n-byte shadowed
// memory operation. All cycle accounting happens in the public entry
// points; the kernels below are uncounted, so fast and slow paths —
// and the refXxx predecessors — charge identically.
func accessCost(n uint64) uint64 {
	return prog.MemOpCycles(n) * shadowCostFactor
}

// Load implements prog.HeapBackend: it returns the data together with
// its V-bit masks and origin tags, checking A-bits per byte. Access
// violations are recorded and execution resumes with the raw bytes
// (Valgrind's behaviour), so one run can expose multiple bugs.
func (b *Backend) Load(addr, n, ccid uint64) (prog.Value, error) {
	var v prog.Value
	if err := b.LoadInto(&v, addr, n, ccid); err != nil {
		return prog.Value{}, err
	}
	return v, nil
}

// LoadInto is the allocation-free variant of Load: it reuses dst's
// Bytes/Valid/Origin capacity instead of allocating fresh planes per
// call. It implements prog.HeapBackend.
func (b *Backend) LoadInto(dst *prog.Value, addr, n, ccid uint64) error {
	b.cycles += accessCost(n)
	return b.loadInto(dst, addr, n, ccid)
}

// loadInto is the uncounted load kernel shared by Load and Memcpy.
// The all-accessible common case bulk-copies the data, vmask, and
// originT planes; any inaccessible byte in range falls back to the
// precise per-byte reference path.
func (b *Backend) loadInto(dst *prog.Value, addr, n, ccid uint64) error {
	if b.forceRef {
		return b.refLoadInto(dst, addr, n, ccid)
	}
	if err := b.checkMapped(addr, n); err != nil {
		return err
	}
	dst.Bytes = growBytes(dst.Bytes, n)
	dst.Valid = growBytes(dst.Valid, n)
	dst.Origin = growU32(dst.Origin, n)
	if n == 0 {
		return nil
	}
	view, err := b.space.RawView(addr, n)
	if err != nil {
		return fmt.Errorf("shadow: raw read: %w", err)
	}
	if o, ok := b.planeRange(addr, n); ok && allTrue(b.access[o:o+n]) {
		copy(dst.Bytes, view)
		copy(dst.Valid, b.vmask[o:o+n])
		copy(dst.Origin, b.originT[o:o+n])
		return nil
	}
	return b.refLoadInto(dst, addr, n, ccid)
}

// refLoadInto is the naive per-byte predecessor of the load kernel.
func (b *Backend) refLoadInto(dst *prog.Value, addr, n, ccid uint64) error {
	if err := b.checkMapped(addr, n); err != nil {
		return err
	}
	dst.Bytes = growBytes(dst.Bytes, n)
	dst.Valid = growBytes(dst.Valid, n)
	dst.Origin = growU32(dst.Origin, n)
	if n == 0 {
		return nil
	}
	view, err := b.space.RawView(addr, n)
	if err != nil {
		return fmt.Errorf("shadow: raw read: %w", err)
	}
	copy(dst.Bytes, view)
	violated := false
	for i := uint64(0); i < n; i++ {
		o, ok := b.off(addr + i)
		if !ok {
			clear(dst.Valid[i:])
			clear(dst.Origin[i:])
			break
		}
		if !b.access[o] {
			if !violated {
				b.recordAccessViolation(addr+i, n, ccid, false)
				violated = true
			}
			// Data read from inaccessible memory is also invalid.
			dst.Valid[i] = 0
			dst.Origin[i] = b.originT[o]
			continue
		}
		dst.Valid[i] = b.vmask[o]
		dst.Origin[i] = b.originT[o]
	}
	return nil
}

// Store implements prog.HeapBackend: it writes data and propagates the
// value's V-bits and origins into the shadow planes. Bytes landing in
// inaccessible memory are recorded as violations; they are materialized
// only inside red zones or freed buffers (regions this tool owns) and
// dropped elsewhere to keep the analysis heap intact.
func (b *Backend) Store(addr uint64, v prog.Value, ccid uint64) error {
	b.cycles += accessCost(uint64(len(v.Bytes)))
	return b.store(addr, v, ccid)
}

// store is the uncounted store kernel shared by Store, Memcpy, and
// Memset.
func (b *Backend) store(addr uint64, v prog.Value, ccid uint64) error {
	if b.forceRef {
		return b.refStore(addr, v, ccid)
	}
	n := uint64(len(v.Bytes))
	if err := b.checkMapped(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if o, ok := b.planeRange(addr, n); ok && allTrue(b.access[o:o+n]) {
		if err := b.space.RawWrite(addr, v.Bytes); err != nil {
			return fmt.Errorf("shadow: raw write: %w", err)
		}
		b.notePlanes(o, n)
		vm := b.vmask[o : o+n]
		if v.Valid == nil {
			fill(vm, byte(0xFF))
		} else {
			m := copy(vm, v.Valid)
			fill(vm[m:], byte(0xFF))
		}
		ot := b.originT[o : o+n]
		if v.Origin == nil {
			fill(ot, uint32(0))
		} else {
			m := copy(ot, v.Origin)
			fill(ot[m:], uint32(0))
		}
		return nil
	}
	return b.refStore(addr, v, ccid)
}

// refStore is the naive per-byte predecessor of the store kernel.
func (b *Backend) refStore(addr uint64, v prog.Value, ccid uint64) error {
	n := uint64(len(v.Bytes))
	if err := b.checkMapped(addr, n); err != nil {
		return err
	}
	if end := addr + n; n > 0 && end >= addr {
		if end > b.space.End() {
			end = b.space.End()
		}
		if o, ok := b.off(addr); ok {
			b.notePlanes(o, end-addr)
		}
	}
	violated := false
	for i := uint64(0); i < n; i++ {
		o, ok := b.off(addr + i)
		if !ok {
			break
		}
		vm := byte(0xFF)
		if v.Valid != nil && int(i) < len(v.Valid) {
			vm = v.Valid[i]
		}
		var org uint32
		if v.Origin != nil && int(i) < len(v.Origin) {
			org = v.Origin[i]
		}
		if !b.access[o] {
			if !violated {
				b.recordAccessViolation(addr+i, n, ccid, true)
				violated = true
			}
			if c := b.findContaining(addr + i); c == nil {
				continue // would corrupt untracked memory: drop
			}
			// Falls in a red zone or freed buffer: safe to land.
		}
		if err := b.space.RawWriteByte(addr+i, v.Bytes[i]); err != nil {
			return fmt.Errorf("shadow: raw write: %w", err)
		}
		if b.access[o] {
			b.vmask[o] = vm
			b.originT[o] = org
		}
	}
	return nil
}

// Memcpy implements prog.HeapBackend with byte-wise shadow propagation:
// V-bits and origins travel with the data, which is what lets origin
// tracking trace a leak at an output call back to the uninitialized
// allocation it started from. When both ranges are fully accessible,
// the data and both shadow planes move with three bulk copies; any
// red-zone, freed, or unmapped byte falls back to the load-then-store
// path through a reusable scratch value.
func (b *Backend) Memcpy(dst, src, n, ccid uint64) error {
	if b.forceRef {
		return b.refMemcpy(dst, src, n, ccid)
	}
	// One load charge and one store charge, folded into a single
	// charge site so the two halves cannot drift apart.
	b.cycles += 2 * accessCost(n)
	if n > 0 && b.space.Contains(src, n) && b.space.Contains(dst, n) {
		_, sok := b.planeRange(src, n)
		do, dok := b.planeRange(dst, n)
		so := src - b.floor // dst's range may have lowered the floor
		if sok && dok && allTrue(b.access[so:so+n]) && allTrue(b.access[do:do+n]) {
			if err := b.space.RawMemmove(dst, src, n); err != nil {
				return fmt.Errorf("shadow: raw copy: %w", err)
			}
			b.notePlanes(do, n)
			copy(b.vmask[do:do+n], b.vmask[so:so+n])
			copy(b.originT[do:do+n], b.originT[so:so+n])
			return nil
		}
	}
	if err := b.loadInto(&b.cpScratch, src, n, ccid); err != nil {
		return err
	}
	return b.store(dst, b.cpScratch, ccid)
}

// refMemcpy is the naive predecessor of Memcpy, preserving its
// historical cycle arithmetic (charge, re-charge on load, compensate,
// charge on store — net two charges).
func (b *Backend) refMemcpy(dst, src, n, ccid uint64) error {
	b.cycles += accessCost(n)
	b.cycles += accessCost(n) // what Load charged
	var v prog.Value
	if err := b.refLoadInto(&v, src, n, ccid); err != nil {
		return err
	}
	b.cycles -= accessCost(n) // the historical compensation
	b.cycles += accessCost(n) // what Store charged
	return b.refStore(dst, v, ccid)
}

// Memset implements prog.HeapBackend; the filled range becomes fully
// valid. The all-accessible case fills the data plane natively and the
// shadow planes with bulk fills, never materializing an n-byte temp.
func (b *Backend) Memset(addr uint64, c byte, n, ccid uint64) error {
	if b.forceRef {
		return b.refMemset(addr, c, n, ccid)
	}
	b.cycles += accessCost(n)
	if err := b.checkMapped(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if o, ok := b.planeRange(addr, n); ok && allTrue(b.access[o:o+n]) {
		if err := b.space.RawMemset(addr, c, n); err != nil {
			return fmt.Errorf("shadow: raw fill: %w", err)
		}
		b.notePlanes(o, n)
		fill(b.vmask[o:o+n], byte(0xFF))
		fill(b.originT[o:o+n], uint32(0))
		return nil
	}
	b.setScratch = growBytes(b.setScratch, n)
	fill(b.setScratch, c)
	return b.store(addr, prog.Value{Bytes: b.setScratch}, ccid)
}

// refMemset is the naive predecessor of Memset: materialize the fill
// buffer, then store it (the store carries the cycle charge).
func (b *Backend) refMemset(addr uint64, c byte, n, ccid uint64) error {
	data := make([]byte, n)
	for i := range data {
		data[i] = c
	}
	b.cycles += accessCost(n)
	return b.refStore(addr, prog.Value{Bytes: data}, ccid)
}

// CheckUse implements prog.HeapBackend: V-bits are checked only here —
// when a value decides control flow, forms an address, or reaches a
// system call — never at loads, so padding copies (Figure 4) cannot
// raise false positives. The first invalid byte's origin tag leads the
// warning back to the vulnerable allocation.
func (b *Backend) CheckUse(v prog.Value, use prog.UseKind, ccid uint64) {
	b.cycles += shadowCostFactor
	if v.FullyValid() {
		return
	}
	tag := v.InvalidOrigin()
	b.recordUninit(tag, use, ccid, fmt.Sprintf("uninitialized value used as %s", use))
}

// ObservesUse implements prog.HeapBackend: shadow analysis both charges
// cycles and records warnings at use points, so CheckUse calls must
// never be elided.
func (b *Backend) ObservesUse() bool { return true }

// checkMapped verifies the range lies inside the simulated space;
// running off the mapping is a hard fault even under analysis (a real
// process would die under Valgrind too).
func (b *Backend) checkMapped(addr, n uint64) error {
	if n == 0 {
		return nil
	}
	if !b.space.Contains(addr, n) {
		// Out-of-space accesses crash the analysis run like a real
		// SIGSEGV; record what we know first.
		b.recordAccessViolation(addr, n, 0, false)
		return b.space.CheckRead(addr, n)
	}
	return nil
}

// growBytes returns a length-n slice, reusing b's capacity when it
// suffices. Contents are unspecified; callers overwrite every element.
func growBytes(b []byte, n uint64) []byte {
	if uint64(cap(b)) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// growU32 is growBytes for origin-tag planes.
func growU32(b []uint32, n uint64) []uint32 {
	if uint64(cap(b)) >= n {
		return b[:n]
	}
	return make([]uint32, n)
}
