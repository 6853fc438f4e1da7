package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heaptherapy/internal/core"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/vuln"
)

// runOut runs the CLI with an in-memory stdout and returns what it
// printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

// writePatches generates a real patch file for a case.
func writePatches(t *testing.T, caseName string) string {
	t.Helper()
	c := vuln.ByName(caseName)
	if c == nil {
		t.Fatalf("unknown case %s", caseName)
	}
	sys, err := core.NewSystem(c.Program, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.GeneratePatches(c.Attack)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.conf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Patches.WriteConfig(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNativeAttack(t *testing.T) {
	out, err := runOut(t, "-case", "wavpack")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mode: native") || !strings.Contains(out, "ATTACK SUCCEEDED") {
		t.Errorf("native attack output:\n%s", out)
	}
}

func TestDefendedAttack(t *testing.T) {
	patches := writePatches(t, "wavpack")
	out, err := runOut(t, "-case", "wavpack", "-patches", patches)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mode: defended", "attack did not succeed", "deferred frees"} {
		if !strings.Contains(out, want) {
			t.Errorf("defended output missing %q:\n%s", want, out)
		}
	}
}

func TestBenignInput(t *testing.T) {
	out, err := runOut(t, "-case", "wavpack", "-benign", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "attack did not succeed") {
		t.Errorf("benign run output:\n%s", out)
	}
}

func TestInputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "in.bin")
	if err := os.WriteFile(path, []byte{0x00, 1, 2, 3}, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := runOut(t, "-case", "bc", "-input-file", path); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing -case accepted")
	}
	if err := run([]string{"-case", "nope"}, io.Discard); err == nil {
		t.Error("unknown case accepted")
	}
	if err := run([]string{"-case", "bc", "-benign", "99"}, io.Discard); err == nil {
		t.Error("out-of-range benign index accepted")
	}
	if err := run([]string{"-case", "bc", "-patches", "/nonexistent"}, io.Discard); err == nil {
		t.Error("missing patch file accepted")
	}
	if err := run([]string{"-case", "bc", "-telemetry", "xml"}, io.Discard); err == nil {
		t.Error("bogus telemetry format accepted")
	}
	// The engine is not a user choice, so -engine is an unknown flag.
	if err := run([]string{"-case", "bc", "-engine", "tree"}, io.Discard); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Errorf("-engine tree: err = %v, want an unknown-flag error", err)
	}
}

func TestDefendedThreads(t *testing.T) {
	patches := writePatches(t, "optipng")
	out, err := runOut(t, "-case", "optipng", "-patches", patches, "-threads", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"3 threads sharing one heap", "0/3 threads' attacks succeeded"} {
		if !strings.Contains(out, want) {
			t.Errorf("threaded output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"-case", "optipng", "-threads", "0"}, io.Discard); err == nil {
		t.Error("-threads 0 accepted")
	}
}

func TestEncoderFlagRoundTrip(t *testing.T) {
	// Patches generated under PCCE deploy under PCCE.
	c := vuln.ByName("ghostxps")
	sys, err := core.NewSystem(c.Program, core.Options{Encoder: encoding.EncoderPCCE})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.GeneratePatches(c.Attack)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.conf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Patches.WriteConfig(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := runOut(t, "-case", "ghostxps", "-patches", path, "-encoder", "PCCE")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "attack did not succeed") || !strings.Contains(out, "1 recognized vulnerable") {
		t.Errorf("PCCE round trip failed:\n%s", out)
	}
	if err := run([]string{"-case", "ghostxps", "-encoder", "Bogus"}, io.Discard); err == nil {
		t.Error("bogus encoder accepted")
	}
}

// TestTelemetryFlag checks both report formats over a defended run: the
// table must show the patch-hit counter and event trace, the JSON must
// parse-roundtrip through the snapshot schema (covered by the golden
// test; here we pin the load-bearing lines).
func TestTelemetryFlag(t *testing.T) {
	patches := writePatches(t, "heartbleed")
	out, err := runOut(t, "-case", "heartbleed", "-patches", patches, "-telemetry", "table")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"telemetry:", "patch_hits", "patch-hit", "histogram alloc_size"} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry table missing %q:\n%s", want, out)
		}
	}
	out, err = runOut(t, "-case", "heartbleed", "-patches", patches, "-telemetry", "json")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"counters"`, `"patch_hits": 1`, `"events"`} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry JSON missing %q:\n%s", want, out)
		}
	}
}
