package ccprof

import (
	"strings"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
)

// hotColdProgram allocates 10 times from one context and once from
// another.
func hotColdProgram() *prog.Program {
	return prog.MustLink(&prog.Program{
		Name: "hotcold",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Assign{Dst: "i", E: prog.C(0)},
				prog.While{Cond: prog.Lt(prog.V("i"), prog.C(10)), Body: []prog.Stmt{
					prog.Call{Callee: "hot"},
					prog.Assign{Dst: "i", E: prog.Add(prog.V("i"), prog.C(1))},
				}},
				prog.Call{Callee: "cold"},
			}},
			"hot": {Body: []prog.Stmt{
				prog.Alloc{Dst: "p", Size: prog.C(100)},
				prog.FreeStmt{Ptr: prog.V("p")},
			}},
			"cold": {Body: []prog.Stmt{
				prog.Alloc{Dst: "p", Fn: heapsim.FnCalloc, Size: prog.C(8), N: prog.C(4)},
				prog.FreeStmt{Ptr: prog.V("p")},
			}},
		},
	})
}

func coderFor(t *testing.T, p *prog.Program, kind encoding.EncoderKind) *encoding.Coder {
	t.Helper()
	plan, err := encoding.NewPlan(encoding.SchemeTCS, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(kind, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return coder
}

func TestProfileCountsAndOrder(t *testing.T) {
	p := hotColdProgram()
	coder := coderFor(t, p, encoding.EncoderPCCE)
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := prog.NewNativeBackend(space)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := Profile(p, backend, coder, nil, prog.EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2 contexts", len(samples))
	}
	if samples[0].Count != 10 || samples[0].Key.Fn != heapsim.FnMalloc {
		t.Errorf("hottest = %+v, want 10 mallocs", samples[0])
	}
	if samples[0].Bytes != 1000 {
		t.Errorf("hottest bytes = %d, want 1000", samples[0].Bytes)
	}
	if samples[1].Count != 1 || samples[1].Key.Fn != heapsim.FnCalloc {
		t.Errorf("cold = %+v, want 1 calloc", samples[1])
	}
	if samples[1].Bytes != 32 {
		t.Errorf("cold bytes = %d, want 32 (4*8)", samples[1].Bytes)
	}
	// PCCE decodes the contexts.
	if samples[0].Context != "main -> hot -> malloc" {
		t.Errorf("hot context = %q", samples[0].Context)
	}
	if samples[1].Context != "main -> cold -> calloc" {
		t.Errorf("cold context = %q", samples[1].Context)
	}
}

func TestProfileUnderPCCStaysOpaque(t *testing.T) {
	p := hotColdProgram()
	coder := coderFor(t, p, encoding.EncoderPCC)
	space, _ := mem.NewSpace(mem.Config{})
	backend, _ := prog.NewNativeBackend(space)
	samples, err := Profile(p, backend, coder, nil, prog.EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Context != "" {
			t.Errorf("PCC sample has decoded context %q", s.Context)
		}
	}
}

func TestRender(t *testing.T) {
	p := hotColdProgram()
	coder := coderFor(t, p, encoding.EncoderPCCE)
	space, _ := mem.NewSpace(mem.Config{})
	backend, _ := prog.NewNativeBackend(space)
	samples, err := Profile(p, backend, coder, nil, prog.EngineCompiled)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(samples, 10)
	for _, want := range []string{"count", "main -> hot -> malloc", "calloc"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Top-1 rendering clips.
	top1 := Render(samples, 1)
	if strings.Contains(top1, "calloc") {
		t.Error("Render(1) included the cold context")
	}
}

// TestSamplesTieOrder: two sites with the same count and CCID under
// different allocation functions must always come out in the same
// order (by Fn), whatever the profile map's iteration order. Without
// an encoder every context shares CCID 0, so calloc and malloc tie on
// both count and CCID.
func TestSamplesTieOrder(t *testing.T) {
	p := prog.MustLink(&prog.Program{
		Name: "tie",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Alloc{Dst: "c", Fn: heapsim.FnCalloc, Size: prog.C(8), N: prog.C(2)},
				prog.Alloc{Dst: "m", Size: prog.C(16)},
				prog.FreeStmt{Ptr: prog.V("m")},
				prog.FreeStmt{Ptr: prog.V("c")},
			}},
		},
	})
	for i := 0; i < 50; i++ {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		backend, err := prog.NewNativeBackend(space)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := Profile(p, backend, nil, nil, prog.EngineCompiled)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 2 {
			t.Fatalf("samples = %d, want 2 contexts", len(samples))
		}
		if samples[0].Key.CCID != samples[1].Key.CCID || samples[0].Count != samples[1].Count {
			t.Fatalf("samples do not tie (test is vacuous): %+v", samples)
		}
		if samples[0].Key.Fn != heapsim.FnMalloc || samples[1].Key.Fn != heapsim.FnCalloc {
			t.Fatalf("profile %d: tie order %v, %v; want malloc, calloc", i, samples[0].Key.Fn, samples[1].Key.Fn)
		}
	}
}
