package core

import (
	"fmt"
	"reflect"
	"testing"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/shadow"
)

// analyzerWithQuota builds an analyzer sharing the system's coder but
// with a custom freed-block queue quota.
func analyzerWithQuota(sys *System, quota uint64) *analysis.Analyzer {
	return &analysis.Analyzer{
		Coder:        sys.Coder(),
		ShadowConfig: shadow.Config{QueueQuota: quota},
	}
}

// multiContextProgram allocates its vulnerable buffer through one of
// two calling contexts, selected by the first input byte, then
// overreads it into an adjacent secret.
func multiContextProgram() *prog.Program {
	leakBody := []prog.Stmt{
		prog.Alloc{Dst: "buf", Size: prog.C(32)},
		prog.Return{E: prog.V("buf")},
	}
	return prog.MustLink(&prog.Program{
		Name: "two-paths",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.ReadInput{Dst: "which", N: prog.C(1)},
				prog.If{Cond: prog.Eq(prog.And(prog.V("which"), prog.C(0xFF)), prog.C(1)), Then: []prog.Stmt{
					prog.Call{Dst: "buf", Callee: "path_a"},
				}, Else: []prog.Stmt{
					prog.Call{Dst: "buf", Callee: "path_b"},
				}},
				prog.Alloc{Dst: "secret", Size: prog.C(32)},
				prog.StoreBytes{Base: prog.V("secret"), Data: []byte("classified-blob!")},
				prog.ReadInput{Dst: "n", N: prog.C(1)},
				prog.Output{Base: prog.V("buf"), N: prog.And(prog.V("n"), prog.C(0xFF))},
			}},
			"path_a": {Body: leakBody},
			"path_b": {Body: leakBody},
		},
	})
}

// TestHandleAttacksMultiContext reproduces the Section IX scenario: an
// attacker develops a second exploit through a different calling
// context; each attack input triggers its own defense-generation
// cycle and the merged patch set covers both.
func TestHandleAttacksMultiContext(t *testing.T) {
	p := multiContextProgram()
	sys, err := NewSystem(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	attackA := []byte{1, 200}
	attackB := []byte{2, 200}

	// A patch generated from attack A alone does not recognize the
	// buffer allocated through path B.
	patchesA, _, err := sys.PatchCycle(attackA)
	if err != nil {
		t.Fatal(err)
	}
	if patchesA.Len() != 1 {
		t.Fatalf("attack A patches = %d, want 1", patchesA.Len())
	}
	runB, err := sys.RunDefended(attackB, patchesA)
	if err != nil {
		t.Fatal(err)
	}
	if runB.Stats.PatchedAllocs != 0 {
		t.Fatal("path-A patch matched a path-B allocation; contexts not distinguished")
	}

	// HandleAttacks merges a cycle per input.
	merged, reports, err := sys.HandleAttacks([][]byte{attackA, attackB})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	if merged.Len() != 2 {
		t.Fatalf("merged patches = %d, want 2 (one per context)", merged.Len())
	}
	for _, attack := range [][]byte{attackA, attackB} {
		run, err := sys.RunDefended(attack, merged)
		if err != nil {
			t.Fatal(err)
		}
		if run.Stats.PatchedAllocs == 0 {
			t.Errorf("merged patches did not match attack %v's allocation", attack[:1])
		}
	}
}

// uafFloodProgram frees one victim buffer and many filler buffers
// (each from its own call site, hence its own CCID), then reads
// through the dangling victim pointer. The fillers flood the
// freed-block queue.
func uafFloodProgram(fillers int) *prog.Program {
	body := []prog.Stmt{
		prog.Call{Dst: "victim", Callee: "alloc_victim"},
	}
	for i := 0; i < fillers; i++ {
		body = append(body, prog.Alloc{Dst: fmt.Sprintf("f%d", i), Size: prog.C(1000)})
	}
	body = append(body, prog.FreeStmt{Ptr: prog.V("victim")})
	for i := 0; i < fillers; i++ {
		body = append(body, prog.FreeStmt{Ptr: prog.V(fmt.Sprintf("f%d", i))})
	}
	body = append(body,
		prog.Load{Dst: "stale", Base: prog.V("victim"), N: prog.C(8)},
		prog.OutputVar{Src: "stale"},
	)
	return prog.MustLink(&prog.Program{
		Name: "uaf-flood",
		Funcs: map[string]*prog.Func{
			"main": {Body: body},
			"alloc_victim": {Body: []prog.Stmt{
				prog.Alloc{Dst: "p", Size: prog.C(1000)},
				prog.Return{E: prog.V("p")},
			}},
		},
	})
}

// TestPartitionedAnalysisRecoversEvictedUAF reproduces Section IX's
// quota discussion: with a queue quota far below the freed bytes, a
// single analysis run evicts the victim before the dangling access and
// misses the UAF; partitioned replays (1/N of frees deferred per run)
// keep the victim parked in one of the runs and recover the patch.
func TestPartitionedAnalysisRecoversEvictedUAF(t *testing.T) {
	p := uafFloodProgram(48)
	sys, err := NewSystem(p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	hasUAF := func(set *patch.Set) bool {
		for _, pp := range set.Patches() {
			if pp.Types.Has(patch.TypeUseAfterFree) {
				return true
			}
		}
		return false
	}

	// Single run with a quota of ~4 buffers: the victim is evicted by
	// the 48 filler frees before the stale load.
	a := analyzerWithQuota(sys, 4*1000)
	single, err := a.Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hasUAF(single.Patches) {
		t.Fatalf("single run detected the UAF despite quota exhaustion; patches: %v",
			single.Patches.Patches())
	}

	// Partitioned into 16 subspaces under the same quota: the run
	// deferring the victim's subspace parks only ~1/16 of the frees,
	// keeping the victim resident.
	partitioned, err := a.AnalyzePartitioned(p, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !hasUAF(partitioned.Patches) {
		t.Fatalf("partitioned analysis missed the UAF; warnings: %v", partitioned.Warnings)
	}
}

func TestPartitionedAnalysisValidation(t *testing.T) {
	p := uafFloodProgram(2)
	sys, err := NewSystem(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := analyzerWithQuota(sys, 0)
	if _, err := a.AnalyzePartitioned(p, nil, 0); err == nil {
		t.Error("partition count 0 accepted")
	}
	// n=1 must behave exactly like Analyze.
	r1, err := a.AnalyzePartitioned(p, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Analyze(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Patches.Len() != r2.Patches.Len() {
		t.Errorf("n=1 partitioned (%d patches) differs from plain analysis (%d)",
			r1.Patches.Len(), r2.Patches.Len())
	}
}

// TestPartitionedMatchesAnalyzeUnderPCCE: with no quota pressure,
// splitting the replay into subspaces changes which frees each run
// defers, not what the analysis reports. Under a decoding (PCCE) coder
// the merged report must carry the same patches, symbolized contexts
// and leak check as a single Analyze.
func TestPartitionedMatchesAnalyzeUnderPCCE(t *testing.T) {
	p := multiContextProgram()
	sys, err := NewSystem(p, Options{Encoder: encoding.EncoderPCCE})
	if err != nil {
		t.Fatal(err)
	}
	a := &analysis.Analyzer{Coder: sys.Coder()}
	input := []byte{1, 64}
	want, err := a.Analyze(p, input)
	if err != nil {
		t.Fatal(err)
	}
	if want.Patches.Len() == 0 || len(want.Contexts) == 0 || len(want.Leaks) == 0 {
		t.Fatalf("Analyze found %d patches, %d contexts, %d leaks; the comparison needs each",
			want.Patches.Len(), len(want.Contexts), len(want.Leaks))
	}
	for _, n := range []int{2, 3} {
		got, err := a.AnalyzePartitioned(p, input, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Patches.Patches(), want.Patches.Patches()) {
			t.Errorf("n=%d: patches %v, Analyze %v", n, got.Patches.Patches(), want.Patches.Patches())
		}
		if !reflect.DeepEqual(got.Contexts, want.Contexts) {
			t.Errorf("n=%d: contexts %v, Analyze %v", n, got.Contexts, want.Contexts)
		}
		if !reflect.DeepEqual(got.Leaks, want.Leaks) {
			t.Errorf("n=%d: leaks %v, Analyze %v", n, got.Leaks, want.Leaks)
		}
	}
}
