package campaign

import (
	"bytes"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
)

// FuzzGenerate drives the generator over arbitrary seeds: generation
// must always succeed, stay deterministic, and emit canonical
// progtext.
func FuzzGenerate(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		g, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if progtext.Print(g.Program) != g.Source {
			t.Fatalf("seed %d: generated source is not canonical", seed)
		}
		again, err := Generate(seed, GenConfig{})
		if err != nil || again.Source != g.Source {
			t.Fatalf("seed %d: regeneration diverged (%v)", seed, err)
		}
	})
}

// FuzzOracle runs the full differential matrix per fuzzed seed: any
// assertion failure on a healthy pipeline is a real bug in generator,
// engines, allocators, shadow analysis, or defense.
func FuzzOracle(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	o := Oracle{}
	f.Fuzz(func(t *testing.T, seed uint64) {
		g, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep := o.Check(g)
		for _, fl := range rep.Failures {
			t.Errorf("seed %d (%v) [%s @ %s]: %s", seed, g.Kind, fl.Class, fl.Cell, fl.Detail)
		}
	})
}

// FuzzPolicyEquivalence is the cross-family differential fuzz target:
// every fuzzed seed runs the full matrix under all three policy
// families at once. Two properties per seed:
//
//   - benign equivalence: every benign cell — any policy, any engine,
//     any allocator — is bit-identical in output and step count (the
//     oracle's assertBenign spans the whole policy axis);
//   - no false containment: under a policy whose Containment matrix
//     claims the seed's kind, the attack never exfiltrates the secret
//     or clobbers the sentinel (assertDefendedAttack per family).
//
// Any failure is a real policy bug: a family perturbing benign
// semantics, or claiming containment it does not deliver.
func FuzzPolicyEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	wb := NewWorkbench(Oracle{Policies: defense.AllFamilies()})
	f.Fuzz(func(t *testing.T, seed uint64) {
		g, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep := wb.Check(g)
		for _, fl := range rep.Failures {
			t.Errorf("seed %d (%v) [%s @ %s]: %s", seed, g.Kind, fl.Class, fl.Cell, fl.Detail)
		}
		// Belt and braces on top of the oracle's own assertions: walk
		// the outcomes directly so a regression in the oracle's
		// containment bookkeeping cannot silently weaken this target.
		for _, out := range rep.Outcomes {
			if out.Cell.Mode != ModeDefended || !out.Cell.Attack || out.Result == nil {
				continue
			}
			if !FamilyContains(out.Cell.Policy, g.Kind) {
				continue
			}
			if g.Kind.Leaky() && bytes.Contains(out.Result.Output, g.Secret) {
				t.Errorf("seed %d: %s leaked the secret under claimed containment", seed, out.Cell)
			}
		}
	})
}

// FuzzReduce checks the reducer's contract on arbitrary seeds: with a
// never-failing predicate the program comes back whole; with a
// size-based predicate reduction terminates and preserves it.
func FuzzReduce(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		g, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := CountStatements(g.Program)
		kept := Reduce(g.Program, func(*prog.Program) bool { return false }, 2)
		if CountStatements(kept) != before {
			t.Fatalf("seed %d: non-failing program shrank", seed)
		}
	})
}
