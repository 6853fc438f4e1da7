package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// benchSetup builds the shared fixtures for the fleet benchmarks: the
// nginx stand-in, its coder, and a patch on one of its per-request
// allocation contexts (so defended serving exercises the full patched
// path, not just table misses). The context is recorded from one
// native run: the CCID seen most often is a handler-loop site.
func benchSetup(tb testing.TB) (*prog.Program, *encoding.Coder, *patch.Set) {
	tb.Helper()
	p, err := workload.Nginx().Program(4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		tb.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		tb.Fatal(err)
	}
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	nb, err := prog.NewNativeBackend(space)
	if err != nil {
		tb.Fatal(err)
	}
	rec := &ccidRecorder{HeapBackend: nb}
	it, err := prog.New(p, prog.Config{Backend: rec, Coder: coder})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := it.Run(nil); err != nil {
		tb.Fatal(err)
	}
	counts := make(map[uint64]int)
	var hot uint64
	for _, c := range rec.ccids {
		counts[c]++
		if counts[c] > counts[hot] || hot == 0 {
			hot = c
		}
	}
	set := patch.NewSet()
	set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: hot, Types: patch.TypeUseAfterFree})
	return p, coder, set
}

// dirty runs a small representative request-worth of heap traffic on
// a context, so recycled-setup measurements recycle a USED context,
// not a pristine one.
func dirty(b *testing.B, ctx *Context) {
	b.Helper()
	be := ctx.Backend()
	var ptrs [8]uint64
	for i := range ptrs {
		p, err := be.Alloc(heapsim.FnMalloc, 0x1000+uint64(i), 1, 256, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := be.Memset(p, 0x5A, 256, 0); err != nil {
			b.Fatal(err)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		if err := be.Free(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSetup compares per-request worker setup: building a
// full fresh context versus recycling a worker's own (including the
// request's worth of dirtying traffic the recycle has to undo).
func BenchmarkFleetSetup(b *testing.B) {
	_, _, set := benchSetup(b)
	cfg := Config{Patches: set}
	b.Run("fresh", func(b *testing.B) {
		f := New(cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, err := f.Acquire()
			if err != nil {
				b.Fatal(err)
			}
			dirty(b, ctx)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		f := New(cfg)
		ctx, err := f.Acquire()
		if err != nil {
			b.Fatal(err)
		}
		dirty(b, ctx)
		if err := ctx.Reset(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dirty(b, ctx)
			if err := ctx.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFleetFreshAcquireBytes pins what a fresh worker context costs:
// under 64 KiB of Go heap per Acquire, because a space's 1 MiB reserve
// has no backing until something reaches it. The recycle side of the
// per-worker design is pinned by TestFleetSteadyStateAllocFree (0
// allocations per request cycle). Both are allocation counts, so
// neither depends on the host's timing.
func TestFleetFreshAcquireBytes(t *testing.T) {
	_, _, set := benchSetup(t)
	f := New(Config{Patches: set})
	const n = 32
	keep := make([]*Context, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		ctx, err := f.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = ctx
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 64<<10 {
		t.Errorf("fresh Acquire allocates %d bytes of Go heap, want under %d", per, 64<<10)
	}
}

// TestFleetSteadyStateAllocFree pins the zero-allocation property of
// the defended worker hot path: request traffic plus the recycle must
// not grow the Go heap once warm.
func TestFleetSteadyStateAllocFree(t *testing.T) {
	_, _, set := benchSetup(t)
	f := New(Config{Patches: set})
	ctx, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	be := ctx.Backend()
	cycle := func() {
		var ptrs [8]uint64
		for i := range ptrs {
			p, err := be.Alloc(heapsim.FnMalloc, 0x1000+uint64(i), 1, 256, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := be.Memset(p, 0x5A, 256, 0); err != nil {
				t.Fatal(err)
			}
			ptrs[i] = p
		}
		for _, p := range ptrs {
			if err := be.Free(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := ctx.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm
	if avg := testing.AllocsPerRun(100, cycle); avg > 0 {
		t.Errorf("steady-state worker cycle allocates %.1f per run, want 0", avg)
	}
}

// BenchmarkFleetServe measures defended end-to-end request throughput
// at several worker counts over the nginx stand-in, each worker running
// the front-end's per-request sequence (serveAll).
func BenchmarkFleetServe(b *testing.B) {
	p, coder, set := benchSetup(b)
	inputs := make([][]byte, 64)
	// Worker counts beyond GOMAXPROCS still run (goroutines multiplex)
	// so the committed trajectory always has the full 1/2/4/8 curve;
	// interpret it against the recorded GOMAXPROCS.
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("defended/w%d", w), func(b *testing.B) {
			f := New(Config{Patches: set})
			if _, err := serveAll(f, p, coder, prog.EngineCompiled, w, inputs); err != nil { // warm up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := serveAll(f, p, coder, prog.EngineCompiled, w, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
