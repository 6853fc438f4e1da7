package shadow

import (
	"bytes"
	"math/rand"
	"testing"

	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
)

// diffPair drives two backends — one using the word-parallel kernels,
// one with forceRef routing every operation through the naive per-byte
// predecessors — through identical operation sequences and asserts they
// remain bit-identical: data bytes, A-bits, V-masks, origin tags,
// warnings, errors, and virtual cycles.
type diffPair struct {
	t    *testing.T
	fast *Backend
	ref  *Backend
}

func newDiffPair(t *testing.T, cfg Config) *diffPair {
	t.Helper()
	mk := func() *Backend {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(space, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	p := &diffPair{t: t, fast: mk(), ref: mk()}
	p.ref.forceRef = true
	return p
}

// checkErrs asserts both sides agreed on success/failure.
func (p *diffPair) checkErrs(op string, ferr, rerr error) {
	p.t.Helper()
	if (ferr == nil) != (rerr == nil) {
		p.t.Fatalf("%s: fast err = %v, ref err = %v", op, ferr, rerr)
	}
	if ferr != nil && ferr.Error() != rerr.Error() {
		p.t.Fatalf("%s: fast err %q, ref err %q", op, ferr, rerr)
	}
}

// compare checks every observable output of the two backends.
func (p *diffPair) compare(op string) {
	p.t.Helper()
	f, r := p.fast, p.ref
	fd, _ := f.space.RawView(f.space.Base(), f.space.Size())
	rd, _ := r.space.RawView(r.space.Base(), r.space.Size())
	if !bytes.Equal(fd, rd) {
		p.t.Fatalf("%s: space data diverged (first diff at +%#x)", op, firstDiff(fd, rd))
	}
	if f.floor != r.floor {
		p.t.Fatalf("%s: plane floors diverged: fast %#x, ref %#x", op, f.floor, r.floor)
	}
	if len(f.access) != len(r.access) {
		p.t.Fatalf("%s: plane lengths diverged: fast %d, ref %d", op, len(f.access), len(r.access))
	}
	for i := range f.access {
		if f.access[i] != r.access[i] {
			p.t.Fatalf("%s: A-bits diverged at +%#x: fast %v, ref %v", op, i, f.access[i], r.access[i])
		}
	}
	if !bytes.Equal(f.vmask, r.vmask) {
		p.t.Fatalf("%s: V-masks diverged (first diff at +%#x)", op, firstDiff(f.vmask, r.vmask))
	}
	for i := range f.originT {
		if f.originT[i] != r.originT[i] {
			p.t.Fatalf("%s: origin tags diverged at +%#x: fast %d, ref %d", op, i, f.originT[i], r.originT[i])
		}
	}
	if f.cycles != r.cycles {
		p.t.Fatalf("%s: cycles diverged: fast %d, ref %d", op, f.cycles, r.cycles)
	}
	fw, rw := f.Warnings(), r.Warnings()
	if len(fw) != len(rw) {
		p.t.Fatalf("%s: warning counts diverged: fast %d %v, ref %d %v", op, len(fw), fw, len(rw), rw)
	}
	for i := range fw {
		if fw[i] != rw[i] {
			p.t.Fatalf("%s: warning %d diverged:\nfast %+v\nref  %+v", op, i, fw[i], rw[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestDifferentialShadowOps is the main fuzz driver: a long random
// sequence of allocs, frees, reallocs, loads, stores, memcpys, memsets,
// and use checks, with addresses biased to straddle red zones, freed
// buffers, and unmapped space.
func TestDifferentialShadowOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		t.Run("", func(t *testing.T) {
			runDifferentialShadowOps(t, seed)
		})
	}
}

func runDifferentialShadowOps(t *testing.T, seed int64) {
	p := newDiffPair(t, Config{})
	rng := rand.New(rand.NewSource(seed))

	type buf struct {
		ptr  uint64
		size uint64
		dead bool // freed (deferred, never released in this config)
	}
	var bufs []buf

	pickLen := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Intn(8))
		case 1:
			return uint64(rng.Intn(64))
		default:
			return uint64(rng.Intn(512))
		}
	}
	// pickReadAddr: reads are side-effect free, so they may land
	// anywhere — payloads, red zones, freed buffers, allocator
	// metadata, or outside the space entirely.
	pickReadAddr := func() uint64 {
		if len(bufs) == 0 || rng.Intn(10) == 0 {
			base := p.fast.space.Base()
			return base + uint64(rng.Intn(int(p.fast.space.Size())))
		}
		b := bufs[rng.Intn(len(bufs))]
		off := int64(rng.Intn(int(b.size+2*redZone))) - int64(redZone)
		return uint64(int64(b.ptr) + off)
	}
	// pickWriteRange constrains writes to chunk footprints (payload and
	// red zones of live or freed-but-deferred buffers — memory the
	// analyzer owns) or to out-of-space addresses that fault. Truly wild
	// in-space writes would corrupt allocator metadata — faithfully and
	// identically on both backends, but heapsim then panics and ends the
	// run early.
	pickWriteRange := func() (uint64, uint64) {
		if len(bufs) == 0 || rng.Intn(10) == 0 {
			sp := p.fast.space
			switch rng.Intn(3) {
			case 0:
				return sp.Base() - 1 - uint64(rng.Intn(64)), 1 + pickLen()
			case 1:
				return sp.End() + uint64(rng.Intn(1<<16)), 1 + pickLen()
			default:
				return ^uint64(0) - uint64(rng.Intn(16)), 1 + pickLen()
			}
		}
		b := bufs[rng.Intn(len(bufs))]
		lo := b.ptr - redZone
		hi := b.ptr + b.size + redZone
		addr := lo + uint64(rng.Intn(int(hi-lo)))
		n := pickLen()
		if addr+n > hi {
			n = hi - addr
		}
		return addr, n
	}

	ccid := uint64(0x100)
	for i := 0; i < 1500; i++ {
		ccid++
		switch op := rng.Intn(10); op {
		case 0, 1: // alloc
			fn := heapsim.FnMalloc
			n, align := uint64(1), uint64(0)
			switch rng.Intn(3) {
			case 1:
				fn = heapsim.FnCalloc
				n = uint64(1 + rng.Intn(4))
			case 2:
				fn = heapsim.FnMemalign
				align = uint64(1) << (3 + rng.Intn(5))
			}
			size := uint64(1 + rng.Intn(256))
			fp, ferr := p.fast.Alloc(fn, ccid, n, size, align)
			rp, rerr := p.ref.Alloc(fn, ccid, n, size, align)
			p.checkErrs("alloc", ferr, rerr)
			if ferr == nil {
				if fp != rp {
					t.Fatalf("alloc: fast ptr %#x, ref ptr %#x", fp, rp)
				}
				userSize := size
				if fn == heapsim.FnCalloc {
					userSize = n * size
				}
				bufs = append(bufs, buf{ptr: fp, size: userSize})
			}
		case 2: // free (sometimes stale or wild)
			var ptr uint64
			switch {
			case len(bufs) > 0 && rng.Intn(4) > 0:
				j := rng.Intn(len(bufs))
				ptr = bufs[j].ptr
				bufs[j].dead = true
			case rng.Intn(2) == 0:
				ptr = pickReadAddr() // wild or interior free
			default:
				ptr = 0 // free(NULL)
			}
			// A wild pick can coincide with a live user pointer and
			// genuinely free it; keep the bookkeeping honest.
			for j := range bufs {
				if bufs[j].ptr == ptr {
					bufs[j].dead = true
				}
			}
			p.checkErrs("free", p.fast.Free(ptr, ccid), p.ref.Free(ptr, ccid))
		case 3: // realloc (sometimes of a freed or wild pointer)
			var ptr uint64
			if len(bufs) > 0 && rng.Intn(4) > 0 {
				j := rng.Intn(len(bufs))
				ptr = bufs[j].ptr
				if !bufs[j].dead {
					// A live realloc may move the block; the old region
					// returns to the allocator immediately, so it must
					// leave the write-target pool.
					bufs[j] = bufs[len(bufs)-1]
					bufs = bufs[:len(bufs)-1]
				}
			} else if rng.Intn(2) == 0 {
				ptr = pickReadAddr()
				for j := 0; j < len(bufs); j++ {
					if bufs[j].ptr == ptr && !bufs[j].dead {
						// Coincidental hit on a live chunk: this is a real
						// realloc, so the old region leaves the pool.
						bufs[j] = bufs[len(bufs)-1]
						bufs = bufs[:len(bufs)-1]
						j--
					}
				}
			}
			size := uint64(1 + rng.Intn(256))
			fp, ferr := p.fast.Realloc(ccid, ptr, size)
			rp, rerr := p.ref.Realloc(ccid, ptr, size)
			p.checkErrs("realloc", ferr, rerr)
			if ferr == nil {
				if fp != rp {
					t.Fatalf("realloc: fast ptr %#x, ref ptr %#x", fp, rp)
				}
				bufs = append(bufs, buf{ptr: fp, size: size})
			}
		case 4, 5: // store with randomized V-bits and origins
			addr, n := pickWriteRange()
			v := prog.Value{Bytes: make([]byte, n)}
			rng.Read(v.Bytes)
			if rng.Intn(2) == 0 {
				v.Valid = make([]byte, rng.Intn(int(n)+1)) // possibly short
				rng.Read(v.Valid)
			}
			if rng.Intn(2) == 0 {
				v.Origin = make([]uint32, rng.Intn(int(n)+1))
				for j := range v.Origin {
					v.Origin[j] = uint32(rng.Intn(8))
				}
			}
			p.checkErrs("store", p.fast.Store(addr, v, ccid), p.ref.Store(addr, v, ccid))
		case 6, 7: // load, plus a use check on the result
			addr, n := pickReadAddr(), pickLen()
			fv, ferr := p.fast.Load(addr, n, ccid)
			rv, rerr := p.ref.Load(addr, n, ccid)
			p.checkErrs("load", ferr, rerr)
			if ferr == nil {
				if !bytes.Equal(fv.Bytes, rv.Bytes) || !bytes.Equal(fv.Valid, rv.Valid) {
					t.Fatalf("load(%#x, %d): values diverged\nfast %+v\nref  %+v", addr, n, fv, rv)
				}
				for j := range fv.Origin {
					if fv.Origin[j] != rv.Origin[j] {
						t.Fatalf("load(%#x, %d): origin %d diverged: fast %d, ref %d",
							addr, n, j, fv.Origin[j], rv.Origin[j])
					}
				}
				use := []prog.UseKind{prog.UseControlFlow, prog.UseAddress, prog.UseOutput}[rng.Intn(3)]
				p.fast.CheckUse(fv, use, ccid)
				p.ref.CheckUse(rv, use, ccid)
			}
		case 8: // memcpy, overlapping allowed
			dst, n := pickWriteRange()
			src := pickReadAddr()
			if rng.Intn(3) == 0 { // bias toward overlap
				src = dst + uint64(rng.Intn(16))
			}
			p.checkErrs("memcpy",
				p.fast.Memcpy(dst, src, n, ccid),
				p.ref.Memcpy(dst, src, n, ccid))
		case 9: // memset
			addr, n := pickWriteRange()
			c := byte(rng.Intn(256))
			p.checkErrs("memset",
				p.fast.Memset(addr, c, n, ccid),
				p.ref.Memset(addr, c, n, ccid))
		}
		if i%16 == 0 {
			p.compare("step")
		}
	}
	p.compare("final")
	if len(p.fast.Warnings()) == 0 {
		t.Error("differential run recorded no warnings; op mix is not exercising violations")
	}
}

// TestDifferentialDeferFilter repeats a smaller run with a CCID-
// partitioned defer filter, exercising the immediate-release path
// (released chunks, recycled regions) on both kernels.
func TestDifferentialDeferFilter(t *testing.T) {
	cfg := Config{
		QueueQuota:  1024, // force FIFO evictions
		DeferFilter: func(ccid uint64) bool { return ccid%2 == 0 },
	}
	p := newDiffPair(t, cfg)
	rng := rand.New(rand.NewSource(99))
	var ptrs []uint64
	for i := 0; i < 400; i++ {
		ccid := uint64(i)
		switch rng.Intn(3) {
		case 0, 1:
			size := uint64(1 + rng.Intn(512))
			fp, ferr := p.fast.Alloc(heapsim.FnMalloc, ccid, 1, size, 0)
			rp, rerr := p.ref.Alloc(heapsim.FnMalloc, ccid, 1, size, 0)
			p.checkErrs("alloc", ferr, rerr)
			if ferr == nil && fp == rp {
				ptrs = append(ptrs, fp)
			}
		case 2:
			if len(ptrs) == 0 {
				continue
			}
			j := rng.Intn(len(ptrs))
			ptr := ptrs[j]
			ptrs = append(ptrs[:j], ptrs[j+1:]...)
			p.checkErrs("free", p.fast.Free(ptr, ccid), p.ref.Free(ptr, ccid))
			// Poke the just-freed buffer: UAF on deferred blocks,
			// silent on released ones — both sides must agree.
			v := prog.Value{Bytes: []byte{0xEE}}
			p.checkErrs("uaf store", p.fast.Store(ptr, v, ccid), p.ref.Store(ptr, v, ccid))
		}
		if i%8 == 0 {
			p.compare("step")
		}
	}
	p.compare("final")
}

// TestShadowOpAllocs pins the zero-allocation guarantee on the
// steady-state operation paths (LoadInto, Store, Memcpy, Memset) over
// live, fully accessible buffers.
func TestShadowOpAllocs(t *testing.T) {
	b := newBackend(t, Config{})
	src := mustAlloc(t, b, heapsim.FnMalloc, 1, 1, 1024, 0)
	dst := mustAlloc(t, b, heapsim.FnMalloc, 2, 1, 1024, 0)
	if err := b.Memset(src, 0xAB, 1024, 1); err != nil {
		t.Fatal(err)
	}
	var scratch prog.Value
	if err := b.LoadInto(&scratch, src, 1024, 1); err != nil {
		t.Fatal(err)
	}
	stored := prog.Value{Bytes: make([]byte, 512), Valid: make([]byte, 512)}
	cases := []struct {
		name string
		fn   func()
	}{
		{"LoadInto", func() {
			if err := b.LoadInto(&scratch, src, 1024, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"Store", func() {
			if err := b.Store(dst, stored, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"Memcpy", func() {
			if err := b.Memcpy(dst, src, 1024, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"Memset", func() {
			if err := b.Memset(dst, 0x55, 1024, 1); err != nil {
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
