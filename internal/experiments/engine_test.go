package experiments

import (
	"testing"

	"heaptherapy/internal/prog"
)

// TestExperimentsEngineIndependent locks in the claim the Config.Engine
// doc makes: every deterministic (cycle-axis) experiment renders a
// bit-identical report whether the programs execute on the tree
// interpreter or the compiled machine. Wall-clock experiments (the
// throughput columns of fleet/concurrent) are excluded by design.
func TestExperimentsEngineIndependent(t *testing.T) {
	cases := []struct {
		name string
		run  func(Config) (string, error)
	}{
		{"table2", func(cfg Config) (string, error) {
			r, err := TableII(cfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table3", func(cfg Config) (string, error) {
			r, err := TableIII(cfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig9", func(cfg Config) (string, error) {
			r, err := Figure9(cfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"scaling", func(cfg Config) (string, error) {
			r, err := PatchScaling(cfg)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tree, err := c.run(Config{Quick: true, Engine: prog.EngineTree})
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.run(Config{Quick: true, Engine: prog.EngineCompiled})
			if err != nil {
				t.Fatal(err)
			}
			if tree != got {
				t.Errorf("render differs across engines\n--- tree ---\n%s\n--- compiled ---\n%s", tree, got)
			}
		})
	}
}
