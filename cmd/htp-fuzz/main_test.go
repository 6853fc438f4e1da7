package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunCleanCampaign(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-seeds", "10")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "all 10 cases passed") {
		t.Fatalf("stdout: %s", stdout)
	}
}

func TestRunJSONReport(t *testing.T) {
	code, stdout, _ := runCLI(t, "-seeds", "5", "-start", "100", "-json")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var rep report
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if rep.Cases != 5 || rep.Start != 100 || rep.Failed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if len(rep.Engines) == 0 || len(rep.Allocs) == 0 {
		t.Fatalf("matrix axes missing from report: %+v", rep)
	}
	if rep.SeedsPerSec <= 0 {
		t.Errorf("seeds_per_sec missing: %+v", rep)
	}
	if rep.Workers < 1 || len(rep.PerWorker) != rep.Workers {
		t.Errorf("per-worker breakdown missing: workers=%d per_worker=%v", rep.Workers, rep.PerWorker)
	}
}

// TestRunParallelParity pins the CLI-level determinism contract: the
// same campaign at different worker counts produces identical JSON
// reports once timing and per-worker fields are zeroed.
func TestRunParallelParity(t *testing.T) {
	parse := func(args ...string) report {
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("args %v: exit %d, stderr: %s", args, code, stderr)
		}
		var rep report
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, stdout)
		}
		// Timing and scheduling fields are the documented exceptions.
		rep.Workers = 0
		rep.ShardSize = 0
		rep.Ms = 0
		rep.SeedsPerSec = 0
		rep.PerWorker = nil
		return rep
	}
	// 40 seeds make three auto-sized shards (16, 16, 8).
	seq := parse("-seeds", "40", "-json", "-workers", "1")
	par := parse("-seeds", "40", "-json", "-workers", "4")
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel report diverges:\n seq: %+v\n par: %+v", seq, par)
	}
}

func TestRunSummaryThroughput(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-seeds", "6", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "seeds/sec") {
		t.Errorf("summary lacks throughput: %s", stdout)
	}
	if !strings.Contains(stdout, "worker 0:") || !strings.Contains(stdout, "worker 1:") {
		t.Errorf("summary lacks per-worker breakdown: %s", stdout)
	}
}

func TestRunKindAndMatrixSelection(t *testing.T) {
	code, _, stderr := runCLI(t,
		"-seeds", "3", "-kinds", "uaf-read,double-free",
		"-engines", "compiled", "-allocators", "heap")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-kinds", "heap-spray"},
		{"-engines", "jit"},
		{"-allocators", "slab"},
		{"-no-such-flag"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestEmitCorpus(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI(t, "-emit-corpus", dir, "-seeds", "4", "-start", "7")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote 4 cases") {
		t.Fatalf("stdout: %s", stdout)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []manifestEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || entries[0].Seed != 7 {
		t.Fatalf("manifest: %+v", entries)
	}
	for _, e := range entries {
		if _, err := os.Stat(filepath.Join(dir, e.File)); err != nil {
			t.Errorf("missing corpus file: %v", err)
		}
	}
}
