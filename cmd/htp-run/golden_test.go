package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGolden pins the CLI's end-to-end output byte for byte against
// committed goldens. Everything the tool prints is derived from the
// deterministic virtual-machine run (virtual cycles, not wall clock),
// so the full output — including the telemetry report — is stable
// across hosts. Regenerate with: go test ./cmd/htp-run -run Golden -update
func TestGolden(t *testing.T) {
	hbPatches := writePatches(t, "heartbleed")
	opPatches := writePatches(t, "optipng")
	cases := []struct {
		name string
		args []string
	}{
		{"native-heartbleed", []string{"-case", "heartbleed"}},
		{"native-heartbleed-compiled", []string{"-case", "heartbleed", "-engine", "compiled"}},
		{"native-wavpack-benign", []string{"-case", "wavpack", "-benign", "0"}},
		{"defended-heartbleed", []string{"-case", "heartbleed", "-patches", hbPatches}},
		{"defended-heartbleed-telemetry-table", []string{"-case", "heartbleed", "-patches", hbPatches, "-telemetry", "table"}},
		{"defended-heartbleed-telemetry-json", []string{"-case", "heartbleed", "-patches", hbPatches, "-telemetry", "json"}},
		{"defended-optipng-threads", []string{"-case", "optipng", "-patches", opPatches, "-threads", "3", "-telemetry", "table"}},
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
