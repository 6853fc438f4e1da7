package workload

import (
	"strings"
	"testing"

	"heaptherapy/internal/prog"
)

// TestServiceProgramRejectsBadShape: non-positive request/concurrency
// counts are driver bugs and must not silently produce empty programs.
func TestServiceProgramRejectsBadShape(t *testing.T) {
	for _, svc := range []*Service{Nginx(), MySQL()} {
		for _, shape := range [][2]int{{0, 1}, {-3, 1}, {4, 0}, {4, -2}} {
			_, err := svc.Program(shape[0], shape[1])
			if err == nil || !strings.Contains(err.Error(), "positive") {
				t.Errorf("%s.Program(%d, %d) = %v, want positive-count error",
					svc.Name, shape[0], shape[1], err)
			}
		}
	}
}

// TestServiceProgramClampsConcurrency: more connections than requests
// degrades to one batch, not an invalid program.
func TestServiceProgramClampsConcurrency(t *testing.T) {
	p, err := Nginx().Program(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != "main" {
		t.Fatalf("entry = %q", p.Entry)
	}
}

// TestTargetsFallback: a benchmark with no recorded allocation counts
// still targets malloc (every driver allocates through something).
func TestTargetsFallback(t *testing.T) {
	b := &Benchmark{Name: "synthetic"}
	got := b.Targets()
	if len(got) != 1 || got[0] != "malloc" {
		t.Fatalf("Targets() = %v, want [malloc]", got)
	}
	b = &Benchmark{Name: "realloc-heavy", Mallocs: 1, Callocs: 2, Reallocs: 3}
	if got := b.Targets(); len(got) != 3 {
		t.Fatalf("Targets() = %v, want all three", got)
	}
}

// TestLiveHeapProgramClampsAllocSize: benchmarks with multi-megabyte
// average allocations must respect the size ceiling so the simulated
// space stays bounded.
func TestLiveHeapProgramClampsAllocSize(t *testing.T) {
	b := &Benchmark{Name: "huge-allocs", AvgAllocSize: 1 << 30, LiveBuffers: 3}
	p, err := b.LiveHeapProgram(ProgramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Funcs["main"] == nil {
		t.Fatal("no program")
	}
	allocs := 0
	for _, st := range p.Funcs["main"].Body {
		if a, ok := st.(prog.Alloc); ok {
			allocs++
			if size := a.Size.(prog.Const).V; size > 16+maxAllocSize {
				t.Errorf("live buffer %s of %d bytes exceeds the %d-byte ceiling", a.Dst, size, maxAllocSize)
			}
		}
	}
	if allocs != b.LiveBuffers {
		t.Errorf("%d live allocations, want %d", allocs, b.LiveBuffers)
	}
}
