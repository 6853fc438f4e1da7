package campaign

import (
	"reflect"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// TestWorkbenchBitIdentical is the pooled oracle's license to exist:
// one Workbench reused across a corpus of seeds must produce, for
// every seed, a report whose outcomes are signature-identical (and
// whose failures are deeply equal) to the fresh-construction
// Oracle.Check path. The signature folds output bytes, faults, step
// and cycle counts, allocator stats, defense stats, telemetry
// snapshots, warnings, and patch text — so this is bit-identity of
// everything the differential oracle can observe.
func TestWorkbenchBitIdentical(t *testing.T) {
	o := Oracle{}
	wb := NewWorkbench(o)
	seeds := uint64(24)
	if raceEnabled {
		seeds = 4
	}
	for seed := uint64(0); seed < seeds; seed++ {
		g, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fresh := o.Check(g)
		pooled := wb.Check(g)
		diffReports(t, seed, fresh, pooled)
		if t.Failed() {
			t.Fatalf("seed %d source:\n%s", seed, g.Source)
		}
	}
}

// TestWorkbenchPerKind drives one case of every vulnerability kind
// through a single recycled workbench, so each gadget shape (and each
// patch-set shape the defended cells reload) crosses the pooled path.
func TestWorkbenchPerKind(t *testing.T) {
	o := Oracle{}
	wb := NewWorkbench(o)
	for _, kind := range AllKinds() {
		g, err := Generate(7, GenConfig{Kinds: []VulnKind{kind}})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		fresh := o.Check(g)
		pooled := wb.Check(g)
		diffReports(t, g.Seed, fresh, pooled)
		if t.Failed() {
			t.Fatalf("kind %v source:\n%s", kind, g.Source)
		}
	}
}

// TestWorkbenchAllocatorForNeverPooled pins that an allocator override
// is never recycled: Oracle.Check and a workbench reused across seeds
// each call AllocatorFor exactly once per native and defended cell,
// every time over a space no earlier call saw, and the two reports
// still match cell by cell.
func TestWorkbenchAllocatorForNeverPooled(t *testing.T) {
	calls := 0
	spaces := map[*mem.Space]bool{}
	o := Oracle{
		AllocatorFor: func(kind AllocKind, space *mem.Space) (heapsim.Allocator, error) {
			calls++
			if spaces[space] {
				t.Errorf("AllocatorFor called twice over one space")
			}
			spaces[space] = true
			if kind == AllocHeap {
				return &lazyHeap{space: space}, nil
			}
			return heapsim.NewPool(space)
		},
	}
	wb := NewWorkbench(o)
	for seed := uint64(3); seed < 5; seed++ {
		g, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		calls = 0
		fresh := o.Check(g)
		freshCalls := calls
		calls = 0
		pooled := wb.Check(g)
		cells := 0
		for _, out := range fresh.Outcomes {
			if out.Cell.Mode != ModeShadow {
				cells++
			}
		}
		if cells == 0 || freshCalls != cells || calls != cells {
			t.Errorf("seed %d: AllocatorFor calls: Oracle.Check %d, Workbench.Check %d, want %d (one per native and defended cell)",
				seed, freshCalls, calls, cells)
		}
		if !fresh.OK() {
			t.Errorf("seed %d: matrix failed over the override: %+v", seed, fresh.Failures)
		}
		diffReports(t, seed, fresh, pooled)
	}
}

// lazyHeap is a boundary-tag heap whose arena is established on first
// use, the construction order an AllocatorFor factory owes the defended
// cells: their patch table must map before the arena.
type lazyHeap struct {
	space *mem.Space
	heap  *heapsim.Heap
}

func (l *lazyHeap) h() *heapsim.Heap {
	if l.heap == nil {
		h, err := heapsim.New(l.space)
		if err != nil {
			panic(err)
		}
		l.heap = h
	}
	return l.heap
}

func (l *lazyHeap) Malloc(size uint64) (uint64, error)          { return l.h().Malloc(size) }
func (l *lazyHeap) Calloc(n, size uint64) (uint64, error)       { return l.h().Calloc(n, size) }
func (l *lazyHeap) Realloc(ptr, size uint64) (uint64, error)    { return l.h().Realloc(ptr, size) }
func (l *lazyHeap) Memalign(align, size uint64) (uint64, error) { return l.h().Memalign(align, size) }
func (l *lazyHeap) Free(ptr uint64) error                       { return l.h().Free(ptr) }
func (l *lazyHeap) UsableSize(ptr uint64) (uint64, error)       { return l.h().UsableSize(ptr) }

// CheckIntegrity audits the real heap's metadata once it exists.
func (l *lazyHeap) CheckIntegrity() error {
	if l.heap == nil {
		return nil
	}
	return l.heap.CheckIntegrity()
}

func diffReports(t *testing.T, seed uint64, fresh, pooled *Report) {
	t.Helper()
	if len(fresh.Outcomes) != len(pooled.Outcomes) {
		t.Errorf("seed %d: outcome count fresh=%d pooled=%d", seed, len(fresh.Outcomes), len(pooled.Outcomes))
		return
	}
	for i := range fresh.Outcomes {
		f, p := fresh.Outcomes[i], pooled.Outcomes[i]
		if f.Cell != p.Cell {
			t.Errorf("seed %d outcome %d: cell fresh=%v pooled=%v", seed, i, f.Cell, p.Cell)
			continue
		}
		if fs, ps := f.signature(), p.signature(); fs != ps {
			t.Errorf("seed %d cell %v:\n fresh:  %s\n pooled: %s", seed, f.Cell, fs, ps)
		}
	}
	if !reflect.DeepEqual(fresh.Failures, pooled.Failures) {
		t.Errorf("seed %d: failures diverge\n fresh:  %+v\n pooled: %+v", seed, fresh.Failures, pooled.Failures)
	}
}

// TestPooledSetupAllocs pins the whole point of the workbench: once
// warm, recycling a cell's substrate for the next seed costs (almost)
// no allocations — versus ~6700 per seed for fresh construction. The
// shadow and native substrates reset entirely in place; the defended
// substrate re-derives its patch table from the incoming set, which is
// allowed a small per-seed allowance for the table pages and defense
// bookkeeping.
func TestPooledSetupAllocs(t *testing.T) {
	wb := NewWorkbench(Oracle{})
	g, err := Generate(1, GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := wb.Check(g); !rep.OK() {
		t.Fatalf("warmup failed: %+v", rep.Failures)
	}

	shadow := testing.AllocsPerRun(50, func() {
		wb.shadowSpace.Reset()
		if err := wb.shadowBack.Reset(); err != nil {
			t.Fatal(err)
		}
	})
	if shadow > 0 {
		t.Errorf("shadow substrate recycle allocates: %.1f allocs/reset (want 0)", shadow)
	}

	for _, alloc := range AllAllocators() {
		nb := wb.native[alloc]
		got := testing.AllocsPerRun(50, func() {
			nb.space.Reset()
			if err := nb.backend.Reset(); err != nil {
				t.Fatal(err)
			}
		})
		if got > 0 {
			t.Errorf("native/%v substrate recycle allocates: %.1f allocs/reset (want 0)", alloc, got)
		}
	}

	set := patch.NewSet()
	for _, alloc := range AllAllocators() {
		db := wb.defended[defendedKey{alloc: alloc, policy: defense.FamilyHT}]
		got := testing.AllocsPerRun(50, func() {
			db.space.Reset()
			db.tcol.Reset()
			if err := db.back.ResetPatches(set); err != nil {
				t.Fatal(err)
			}
			if db.pool != nil {
				db.pool.Reset()
			}
		})
		if got > 16 {
			t.Errorf("defended/%v substrate recycle allocates: %.1f allocs/reset (want <= 16)", alloc, got)
		}
	}
}
