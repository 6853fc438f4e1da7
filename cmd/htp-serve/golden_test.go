package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGolden pins the demo mode's output byte for byte: the startup
// banner, the scripted incident (benign traffic, wild attack, live
// rollout, contained replay), the /metrics JSON document, and the
// drain exit line. Everything printed is derived from deterministic
// executions over virtual memory, so it is stable across hosts — the
// telemetry-attached case runs one worker so per-shard attribution is
// fixed too; fleet-level sums are order-independent, which is why the
// two-worker case holds without telemetry.
// Regenerate with: go test ./cmd/htp-serve -run Golden -update
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"demo-nginx-tree", []string{"-demo", "-service", "nginx", "-workers", "1", "-telemetry"}},
		{"demo-nginx-compiled", []string{"-demo", "-service", "nginx", "-workers", "2", "-engine", "compiled"}},
		{"demo-mysql-compiled", []string{"-demo", "-service", "mysql", "-workers", "1", "-engine", "compiled"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", c.name+".golden"), out.Bytes())
		})
	}
}

// compareGolden diffs got against the golden file, rewriting it under
// -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (rerun with -update after verifying):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
