package core

import (
	"bytes"
	"strings"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// leakProgram outputs a buffer without initializing it when the input
// flag is zero.
func leakProgram() *prog.Program {
	return prog.MustLink(&prog.Program{
		Name: "leaker",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Alloc{Dst: "old", Size: prog.C(64)},
				prog.StoreBytes{Base: prog.V("old"), Data: []byte("residual secret!")},
				prog.FreeStmt{Ptr: prog.V("old")},
				prog.Alloc{Dst: "buf", Size: prog.C(64)},
				prog.ReadInput{Dst: "f", N: prog.C(1)},
				prog.If{Cond: prog.Ne(prog.Bin{Op: prog.OpAnd, A: prog.V("f"), B: prog.C(0xFF)}, prog.C(0)), Then: []prog.Stmt{
					prog.Memset{Dst: prog.V("buf"), B: prog.C('x'), N: prog.C(64)},
				}},
				prog.Output{Base: prog.V("buf"), N: prog.C(64)},
			}},
		},
	})
}

func TestSystemDefaults(t *testing.T) {
	sys, err := NewSystem(leakProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Coder().Kind() != encoding.EncoderPCC {
		t.Errorf("default encoder = %v, want PCC", sys.Coder().Kind())
	}
	if sys.Coder().Plan().Scheme != encoding.SchemeIncremental {
		t.Errorf("default scheme = %v, want Incremental", sys.Coder().Plan().Scheme)
	}
}

func TestSystemRejectsUnlinked(t *testing.T) {
	p := &prog.Program{Name: "raw", Funcs: map[string]*prog.Func{"main": {}}}
	if _, err := NewSystem(p, Options{}); err == nil {
		t.Error("NewSystem accepted unlinked program")
	}
}

func TestSystemRejectsAllocationFree(t *testing.T) {
	p := prog.MustLink(&prog.Program{
		Name:  "pure",
		Funcs: map[string]*prog.Func{"main": {Body: []prog.Stmt{prog.Nop{}}}},
	})
	if _, err := NewSystem(p, Options{}); err == nil || !strings.Contains(err.Error(), "allocation") {
		t.Errorf("err = %v, want no-allocation error", err)
	}
}

func TestEndToEndPatchCycle(t *testing.T) {
	sys, err := NewSystem(leakProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Attack leaks natively.
	res, err := sys.RunNative([]byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Output), "residual secret!") {
		t.Fatalf("native attack does not leak: %q", res.Output)
	}

	// One call generates deployable patches.
	patches, rep, err := sys.PatchCycle([]byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if patches.Len() == 0 {
		t.Fatalf("no patches; warnings: %v", rep.Warnings)
	}

	// The defended run leaks only zeros.
	run, err := sys.RunDefended([]byte{0}, patches)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(run.Result.Output), "residual") {
		t.Errorf("defended run still leaks: %q", run.Result.Output)
	}
	for i, b := range run.Result.Output {
		if b != 0 {
			t.Fatalf("defended output byte %d = %#x, want 0", i, b)
		}
	}
	if run.Stats.ZeroFills == 0 {
		t.Error("defense applied no zero fill")
	}

	// Benign path unchanged.
	nat, err := sys.RunNative([]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := sys.RunDefended([]byte{1}, patches)
	if err != nil {
		t.Fatal(err)
	}
	if string(nat.Output) != string(def.Result.Output) {
		t.Errorf("benign output changed: %q vs %q", nat.Output, def.Result.Output)
	}
}

func TestRunDefendedWithEmptyPatchSet(t *testing.T) {
	sys, err := NewSystem(leakProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.RunDefended([]byte{1}, patch.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.Crashed() {
		t.Fatalf("defended run with no patches crashed: %v", run.Result.Fault)
	}
	if run.Stats.PatchedAllocs != 0 {
		t.Error("empty patch set matched allocations")
	}
	if run.Stats.Lookups == 0 {
		t.Error("full mode performed no lookups")
	}
}

func TestRunDefendedWithNilPatches(t *testing.T) {
	sys, err := NewSystem(leakProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunDefended([]byte{1}, nil); err != nil {
		t.Fatalf("nil patch set: %v", err)
	}
}

func TestOptionsPropagate(t *testing.T) {
	sys, err := NewSystem(leakProgram(), Options{
		Scheme:  encoding.SchemeFCS,
		Encoder: encoding.EncoderPCCE,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Coder().Kind() != encoding.EncoderPCCE || sys.Coder().Plan().Scheme != encoding.SchemeFCS {
		t.Error("options not propagated to coder")
	}
}

// TestRunDefendedPromotions pins that one default RunDefended of
// 400.perlbench runs on the compiled engine's Machine, and that the
// executor rebuilt from RunDefended's own construction is the one it
// runs.
func TestRunDefendedPromotions(t *testing.T) {
	b, err := workload.BenchmarkByName("400.perlbench")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := b.Program(workload.ProgramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// RunDefended's own construction, keeping the executor to read.
	backend, _, err := sys.defendedBackend(nil)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := prog.NewExec(p, sys.execConfig(backend, sys.coder))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashed() {
		t.Fatalf("defended run crashed: %v", res.Fault)
	}
	if _, ok := ex.(*prog.Machine); !ok {
		t.Fatalf("default engine built %T, want *prog.Machine", ex)
	}
	// The rebuilt executor must be the one RunDefended runs: same
	// output, steps and cycles on the same input.
	run, err := sys.RunDefended(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(run.Result.Output, res.Output) || run.Result.Steps != res.Steps || run.Result.Cycles != res.Cycles {
		t.Errorf("RunDefended diverges from its rebuilt executor\nRunDefended: steps %d cycles %d\nrebuilt:     steps %d cycles %d",
			run.Result.Steps, run.Result.Cycles, res.Steps, res.Cycles)
	}
}
