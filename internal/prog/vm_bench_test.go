package prog

// Engine benchmarks on the interpreter-bound pin workload: the
// tree-walker against the compiled engine, which allocates nothing in
// steady state, plus the one-time bytecode translation cost.
// `make bench-compiled` runs these.

import (
	"testing"

	"heaptherapy/internal/mem"
)

// benchSetup builds the pin workload plus a backend whose heap already
// holds the scratch buffer the program addresses through its input.
func benchSetup(b *testing.B, iters uint64) (*Program, HeapBackend, []byte) {
	b.Helper()
	p := pinProgram(iters)
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		b.Fatal(err)
	}
	backend, err := NewNativeBackend(space)
	if err != nil {
		b.Fatal(err)
	}
	setup := MustLink(&Program{
		Name: "bench-setup",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(64)},
				Memset{Dst: V("p"), B: C(0), N: C(64)},
				Return{E: V("p")},
			}},
		},
	})
	it, err := New(setup, Config{Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	res, err := it.Run(nil)
	if err != nil || res.Crashed() {
		b.Fatalf("bench setup: %v / %v", err, res)
	}
	in := make([]byte, 8)
	for i := 0; i < 8; i++ {
		in[i] = byte(res.Returned.Uint() >> (8 * i))
	}
	return p, backend, in
}

func BenchmarkEnginesTree(b *testing.B) {
	p, backend, input := benchSetup(b, 256)
	it, err := New(p, Config{Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := it.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginesCold times the compiled engine: every statement runs
// through interpFrame, the path one-shot runs execute.
func BenchmarkEnginesCold(b *testing.B) {
	p, backend, input := benchSetup(b, 256)
	m := newTestMachine(b, p, Config{Backend: backend})
	// Warm the register, frame and output buffers.
	if _, err := m.Run(input); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginesColdHooked is BenchmarkEnginesCold with a no-op
// quantum hook at the campaign walker's period: the hook costs a call
// per boundary, so it should read within noise of the unhooked row.
func BenchmarkEnginesColdHooked(b *testing.B) {
	p, backend, input := benchSetup(b, 256)
	m := newTestMachine(b, p, Config{Backend: backend})
	SetQuantumHook(m, 128, func() {})
	if _, err := m.Run(input); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures the one-time translation cost amortized by
// the compiled engine's speedup.
func BenchmarkCompile(b *testing.B) {
	p := pinProgram(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compile(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
