package campaign

import (
	"testing"
)

// TestOracleCleanSeeds runs the full matrix over a band of seeds: a
// healthy pipeline must pass every assertion for every kind, and the
// invariant walker must have audited every cell.
func TestOracleCleanSeeds(t *testing.T) {
	o := Oracle{}
	seeds := uint64(30)
	if raceEnabled {
		// Every seed runs the full 20-cell matrix; scale the raced
		// band down.
		seeds = 5
	}
	for seed := uint64(0); seed < seeds; seed++ {
		g, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep := o.Check(g)
		for _, f := range rep.Failures {
			t.Errorf("seed %d (%v) [%s @ %s]: %s", seed, g.Kind, f.Class, f.Cell, f.Detail)
		}
		if t.Failed() {
			t.Fatalf("seed %d source:\n%s", seed, g.Source)
		}
		walked := false
		for _, out := range rep.Outcomes {
			if out.Checks > 0 {
				walked = true
			}
		}
		if !walked {
			t.Fatalf("seed %d: invariant walker never ran", seed)
		}
	}
}

// TestOraclePerKind pins one seed of every kind through the matrix so
// a regression in a single gadget shape names itself.
func TestOraclePerKind(t *testing.T) {
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			g, err := Generate(7, GenConfig{Kinds: []VulnKind{kind}})
			if err != nil {
				t.Fatal(err)
			}
			rep := Oracle{}.Check(g)
			for _, f := range rep.Failures {
				t.Errorf("[%s @ %s]: %s", f.Class, f.Cell, f.Detail)
			}
			if t.Failed() {
				t.Logf("source:\n%s", g.Source)
			}
		})
	}
}
