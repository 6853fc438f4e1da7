package telemetry

import "testing"

// TestDisabledPathZeroAlloc pins the zero-overhead contract for the
// disabled state: every Scope method on a nil receiver must be free of
// heap allocation (it is a single nil check).
func TestDisabledPathZeroAlloc(t *testing.T) {
	var s *Scope
	if n := testing.AllocsPerRun(1000, func() {
		s.Inc(CtrAllocs)
		s.Add(CtrFrees, 3)
		s.Observe(HistAllocSize, 64)
		s.Event(EvPatchHit, 1, 2, 3)
	}); n != 0 {
		t.Errorf("disabled telemetry allocates %.1f allocs/op, want 0", n)
	}
}

// TestEnabledCounterPathZeroAlloc pins the enabled counter and event
// paths: atomics into preallocated shards and ring slots, no heap
// traffic per operation.
func TestEnabledCounterPathZeroAlloc(t *testing.T) {
	s := New(Config{Shards: 2, RingSize: 64}).Scope()
	if n := testing.AllocsPerRun(1000, func() {
		s.Inc(CtrAllocs)
		s.Add(CtrFrees, 3)
		s.Observe(HistAllocSize, 64)
		s.Event(EvPatchHit, 1, 2, 3)
	}); n != 0 {
		t.Errorf("enabled telemetry hot path allocates %.1f allocs/op, want 0", n)
	}
}

func BenchmarkScopeDisabled(b *testing.B) {
	var s *Scope
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Inc(CtrAllocs)
		s.Observe(HistAllocSize, uint64(i))
	}
}

func BenchmarkScopeInc(b *testing.B) {
	s := New(Config{Shards: 8, RingSize: 64}).Scope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Inc(CtrAllocs)
	}
}

func BenchmarkScopeObserve(b *testing.B) {
	s := New(Config{Shards: 8, RingSize: 64}).Scope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(HistAllocSize, uint64(i))
	}
}

func BenchmarkRingPush(b *testing.B) {
	s := New(Config{Shards: 1, RingSize: 1024}).Scope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Event(EvPatchHit, uint64(i), uint64(i), 0)
	}
}

func BenchmarkScopeIncParallel(b *testing.B) {
	c := New(Config{Shards: 16, RingSize: 64})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		s := c.Scope()
		for pb.Next() {
			s.Inc(CtrAllocs)
		}
	})
}
