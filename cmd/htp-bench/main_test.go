package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heaptherapy/internal/experiments"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan struct{})
	var out []byte
	go func() {
		defer close(done)
		out, _ = io.ReadAll(r)
	}()
	runErr := fn()
	if cerr := w.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	<-done
	os.Stdout = old
	return string(out), runErr
}

func TestTable3Experiment(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-exp", "table3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table III", "400.perlbench", "Incremental"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestGuardExperiment(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-exp", "guard", "-quick"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "targeted saving") {
		t.Errorf("guard output:\n%s", out)
	}
}

func TestQuickServices(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-exp", "services", "-quick"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nginx", "mysql", "AVERAGE"} {
		if !strings.Contains(out, want) {
			t.Errorf("services output missing %q", want)
		}
	}
}

func TestMultipleExperiments(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-exp", "table3,ablation", "-quick"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "queue quota") {
		t.Errorf("comma-separated selection output:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	for _, c := range []struct{ spec, unknown string }{
		{"table99", "table99"},
		{"table3,table99", "table99"},
		// The retired tree-vs-compiled speed ratio.
		{"tierup", "tierup"},
		// The retired wall-clock fleet-scaling and telemetry-overhead runs.
		{"fleet", "fleet"},
		{"telemetry", "telemetry"},
	} {
		err := run([]string{"-exp", c.spec})
		if err == nil {
			t.Errorf("-exp %s: unknown experiment accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), `"`+c.unknown+`"`) || !strings.Contains(err.Error(), "table3") {
			t.Errorf("-exp %s: error %q does not name the typo and the valid experiments", c.spec, err)
		}
	}
}

// TestJSONDetail pins the -json report shape: one record per selected
// experiment, and the Detail keys committed BENCH files cite.
func TestJSONDetail(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-exp", "policy", "-quick", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("decoding -json report: %v\n%s", err, out)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("report has %d experiments, want 1: %+v", len(rep.Experiments), rep.Experiments)
	}
	detail := map[string]map[string]float64{}
	for _, e := range rep.Experiments {
		detail[e.Name] = e.Detail
	}
	policy, ok := detail["policy"]
	if !ok {
		t.Fatalf("no policy record: %+v", rep.Experiments)
	}
	for _, family := range []string{"ht", "mesh", "shadowbound"} {
		for _, metric := range []string{"contained_rate", "cycles_overhead_pct", "mem_overhead_pct"} {
			if _, ok := policy[family+"_"+metric]; !ok {
				t.Errorf("policy detail missing %s_%s: %v", family, metric, policy)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestExperimentsDeterministic renders every experiment twice under
// -quick and requires byte-identical output, equal to
// testdata/<exp>.golden: every htp-bench experiment reports on the
// deterministic virtual-cycle axis, so a render that varies run to run
// (a wall-clock measurement, or an order taken from map iteration)
// fails here, and so does any change to a reproduced number. The
// experiments run the compiled engine only; prog's workload
// differential runs every program they run on the tree reference too.
// Regenerate with: go test ./cmd/htp-bench -run Deterministic -update
func TestExperimentsDeterministic(t *testing.T) {
	cfg := experiments.Config{Quick: true}
	for _, e := range experimentTable {
		var renders [2]string
		for i := range renders {
			r, err := e.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			renders[i] = r.Render()
		}
		if renders[0] != renders[1] {
			t.Errorf("%s renders differently run to run:\n--- first\n%s\n--- second\n%s", e.name, renders[0], renders[1])
		}
		path := filepath.Join("testdata", e.name+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(renders[0]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		if renders[0] != string(want) {
			t.Errorf("%s render differs from %s (rerun with -update after verifying):\n--- got\n%s\n--- want\n%s", e.name, path, renders[0], want)
		}
	}
}
