package analysis

import (
	"slices"
	"strings"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// overflowProgram writes `n` 8-byte entries into a 64-byte buffer,
// where n comes from the input.
func overflowProgram() *prog.Program {
	return prog.MustLink(&prog.Program{
		Name: "of-test",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Call{Callee: "fill"},
			}},
			"fill": {Body: []prog.Stmt{
				prog.Alloc{Dst: "buf", Size: prog.C(64)},
				prog.ReadInput{Dst: "n", N: prog.C(1)},
				prog.Assign{Dst: "i", E: prog.C(0)},
				prog.While{Cond: prog.Lt(prog.V("i"), prog.Bin{Op: prog.OpAnd, A: prog.V("n"), B: prog.C(0xFF)}), Body: []prog.Stmt{
					prog.Store{Base: prog.V("buf"), Off: prog.Mul(prog.V("i"), prog.C(8)), Src: prog.C(0x41), N: prog.C(8)},
					prog.Assign{Dst: "i", E: prog.Add(prog.V("i"), prog.C(1))},
				}},
			}},
		},
	})
}

func newAnalyzer(t *testing.T, p *prog.Program) *Analyzer {
	t.Helper()
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return &Analyzer{Coder: coder}
}

func TestAnalyzeGeneratesOverflowPatch(t *testing.T) {
	p := overflowProgram()
	a := newAnalyzer(t, p)
	rep, err := a.Analyze(p, []byte{12}) // 12*8 = 96 > 64
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Patches.Len() != 1 {
		t.Fatalf("patches = %d, want 1 (%v)", rep.Patches.Len(), rep.Warnings)
	}
	got := rep.Patches.Patches()[0]
	if got.Fn != heapsim.FnMalloc {
		t.Errorf("patch FUN = %v, want malloc", got.Fn)
	}
	if !got.Types.Has(patch.TypeOverflow) {
		t.Errorf("patch types = %v, want OVERFLOW", got.Types)
	}
}

func TestAnalyzeBenignInputNoPatches(t *testing.T) {
	p := overflowProgram()
	a := newAnalyzer(t, p)
	rep, err := a.Analyze(p, []byte{8}) // exactly fits
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patches.Len() != 0 {
		t.Errorf("benign input produced %d patches: %v (zero false positives required)",
			rep.Patches.Len(), rep.Patches.Patches())
	}
}

func TestAnalyzeReportRendering(t *testing.T) {
	p := overflowProgram()
	a := newAnalyzer(t, p)
	rep, err := a.Analyze(p, []byte{12})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"of-test", "OVERFLOW", "patches generated: 1", "FUN=malloc"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeMultipleVulnerabilitiesOneRun(t *testing.T) {
	// A single input that both overflows one buffer and leaks another:
	// the analyzer must resume after the first warning and catch both
	// (Section V, "How to handle multiple vulnerabilities").
	p := prog.MustLink(&prog.Program{
		Name: "multi",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Alloc{Dst: "a", Size: prog.C(32)},
				prog.Alloc{Dst: "b", Size: prog.C(32)},
				// Overread a.
				prog.Output{Base: prog.V("a"), N: prog.C(40)},
				// Uninitialized output of b... already triggered by the
				// overread above? No: b is a separate buffer and origin.
				prog.Output{Base: prog.V("b"), N: prog.C(8)},
			}},
		},
	})
	a := newAnalyzer(t, p)
	rep, err := a.Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var union patch.TypeMask
	for _, pp := range rep.Patches.Patches() {
		union |= pp.Types
	}
	if !union.Has(patch.TypeOverflow) || !union.Has(patch.TypeUninitRead) {
		t.Errorf("union = %v, want OVERFLOW|UNINIT_READ from one run (warnings: %v)", union, rep.Warnings)
	}
	if rep.Patches.Len() < 2 {
		t.Errorf("patches = %d, want >= 2 distinct contexts", rep.Patches.Len())
	}
}

func TestAnalyzeCrashingAttackStillYieldsPatch(t *testing.T) {
	// An attack that would eventually run the program off the rails
	// still produces a patch from the warnings gathered before.
	p := prog.MustLink(&prog.Program{
		Name: "crashy",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Alloc{Dst: "buf", Size: prog.C(16)},
				// Overflow into the red zone first...
				prog.Store{Base: prog.V("buf"), Off: prog.C(16), Src: prog.C(1), N: prog.C(8)},
				// ...then jump far outside the mapped space.
				prog.Store{Base: prog.V("buf"), Off: prog.C(1 << 40), Src: prog.C(1), N: prog.C(8)},
			}},
		},
	})
	a := newAnalyzer(t, p)
	rep, err := a.Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Crashed() {
		t.Error("expected the replay to crash")
	}
	if rep.Patches.Len() == 0 {
		t.Error("no patch despite pre-crash warning")
	}
}

func TestAnalyzeWithoutCoder(t *testing.T) {
	// A nil coder means CCIDs are all zero: analysis still works but
	// every context collapses; patches are still emitted.
	p := overflowProgram()
	a := &Analyzer{}
	rep, err := a.Analyze(p, []byte{12})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patches.Len() != 1 {
		t.Errorf("patches = %d, want 1", rep.Patches.Len())
	}
	if rep.Patches.Patches()[0].CCID != 0 {
		t.Errorf("CCID = %#x, want 0 without instrumentation", rep.Patches.Patches()[0].CCID)
	}
}

// TestWorkloadsNoFalsePositives replays memory-safe SPEC-like workload
// programs under full shadow analysis: the analyzer must stay silent.
// This is the strongest zero-false-positive check in the suite — tens
// of thousands of statements, thousands of allocation/free/realloc
// operations across every allocation API, and not one warning.
func TestWorkloadsNoFalsePositives(t *testing.T) {
	for _, name := range []string{"400.perlbench", "403.gcc", "456.hmmer", "462.libquantum"} {
		b, err := workload.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := b.Program(workload.ProgramConfig{Scale: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		a := newAnalyzer(t, p)
		rep, err := a.Analyze(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Result.Crashed() {
			t.Fatalf("%s crashed under analysis: %v", name, rep.Result.Fault)
		}
		if len(rep.Warnings) != 0 {
			t.Errorf("%s: %d false positives: %v", name, len(rep.Warnings), rep.Warnings)
		}
		if rep.Patches.Len() != 0 {
			t.Errorf("%s: %d spurious patches", name, rep.Patches.Len())
		}
		if len(rep.Leaks) != 0 {
			t.Errorf("%s: %d spurious leaks: %v", name, len(rep.Leaks), rep.Leaks)
		}
	}
}

// TestDecodedContexts: with a decoding-capable encoder (PCCE), patch
// reports include the symbolized allocation call path.
func TestDecodedContexts(t *testing.T) {
	p := overflowProgram()
	plan, err := encoding.NewPlan(encoding.SchemeTCS, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCCE, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	a := &Analyzer{Coder: coder}
	rep, err := a.Analyze(p, []byte{12})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patches.Len() != 1 {
		t.Fatalf("patches = %d", rep.Patches.Len())
	}
	key := rep.Patches.Patches()[0].Key()
	ctx, ok := rep.Contexts[key]
	if !ok {
		t.Fatalf("no decoded context for %v", key)
	}
	if ctx != "main -> fill -> malloc" {
		t.Errorf("decoded context = %q, want main -> fill -> malloc", ctx)
	}
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "context: main -> fill -> malloc") {
		t.Errorf("report missing symbolized context:\n%s", sb.String())
	}
}

// TestNoContextsUnderPCC: the paper's deployed encoder cannot decode;
// reports stay opaque without failing.
func TestNoContextsUnderPCC(t *testing.T) {
	p := overflowProgram()
	a := newAnalyzer(t, p) // PCC
	rep, err := a.Analyze(p, []byte{12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Contexts) != 0 {
		t.Errorf("PCC produced decoded contexts: %v", rep.Contexts)
	}
}

// TestPartitionedMatchesPlainOnSmallHeaps: partitioning must not lose
// findings when the quota is ample.
func TestPartitionedMatchesPlainOnSmallHeaps(t *testing.T) {
	p := overflowProgram()
	a := newAnalyzer(t, p)
	plain, err := a.Analyze(p, []byte{12})
	if err != nil {
		t.Fatal(err)
	}
	part, err := a.AnalyzePartitioned(p, []byte{12}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := part.Patches.Patches(), plain.Patches.Patches(); !slices.Equal(got, want) {
		t.Errorf("partitioned found %v, plain %v", got, want)
	}
}
