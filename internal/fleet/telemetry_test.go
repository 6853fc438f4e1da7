package fleet

import (
	"reflect"
	"testing"

	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// TestFleetTelemetryMerge serves a defended fleet with a live collector
// and checks the merged snapshot against the fleet's own counters: the
// per-worker scopes must account for every request exactly once, the
// sealed table's per-patch hit tally must agree with the patch-hit
// counter, and the patch-hit events must carry the deployed patch keys.
func TestFleetTelemetryMerge(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)

	col := telemetry.New(telemetry.Config{})
	f := New(Config{Patches: patches, Telemetry: col})
	inputs := make([][]byte, 32)
	for i := range inputs {
		if i%4 == 0 {
			inputs[i] = []byte{0xEE} // attack
		} else {
			inputs[i] = []byte{0x00}
		}
	}
	if _, err := serveAll(f, p, coder, prog.EngineCompiled, 4, inputs); err != nil {
		t.Fatal(err)
	}

	stats := f.Stats()
	snap := stats.Telemetry
	if snap == nil {
		t.Fatal("Stats.Telemetry is nil with a collector configured")
	}
	if got := snap.Counter(telemetry.CtrRequests); got != uint64(len(inputs)) {
		t.Errorf("requests counter = %d, want %d", got, len(inputs))
	}
	if got := snap.Counter(telemetry.CtrRequests); got != stats.Requests {
		t.Errorf("telemetry requests %d disagrees with fleet stats %d", got, stats.Requests)
	}
	if snap.Counter(telemetry.CtrAllocs) == 0 {
		t.Error("no allocator activity recorded")
	}
	if snap.Counter(telemetry.CtrPatchHits) == 0 {
		t.Error("no patch hits recorded for a patched workload")
	}

	// The sealed table's tally is kept by the shared read-only table
	// itself; it must agree with the sum of per-worker patch-hit
	// counters, and every tallied key must be a deployed patch. Keys
	// compare in packed-site form, since both the table and the event
	// trace keep the CCID's low 56 bits.
	truth := map[uint64]bool{}
	for _, dp := range patches.Patches() {
		truth[telemetry.PackSite(uint8(dp.Fn), dp.CCID)] = true
	}
	if len(stats.PatchHits) == 0 {
		t.Fatal("Stats.PatchHits empty with telemetry enabled")
	}
	var tableHits uint64
	for key, n := range stats.PatchHits {
		tableHits += n
		if !truth[telemetry.PackSite(uint8(key.Fn), key.CCID)] {
			t.Errorf("sealed-table hits on %v, which is not a deployed patch", key)
		}
	}
	if counted := snap.Counter(telemetry.CtrPatchHits); tableHits != counted {
		t.Errorf("sealed-table hits %d != patch_hits counter %d", tableHits, counted)
	}

	// Per-shard breakdown is the per-tenant-group aggregation: shard
	// request counts must sum to the total.
	var perShard uint64
	for _, sh := range snap.PerShard {
		perShard += sh.Counters[telemetry.CtrRequests.String()]
	}
	if perShard != uint64(len(inputs)) {
		t.Errorf("per-shard requests sum to %d, want %d", perShard, len(inputs))
	}

	for _, e := range snap.EventsOfKind(telemetry.EvPatchHit) {
		if !truth[e.Site] {
			t.Errorf("patch-hit event site %#x is not a deployed patch", e.Site)
		}
	}
}

// TestFleetTelemetryEngineParity pins the engine-transparency contract
// at the observability layer: the exact same defended corpus, served
// single-worker so the event stream is deterministic, must produce
// identical telemetry — counter totals, sealed-table patch-hit
// tallies, and the full retained event trace, sequence numbers
// included — whether requests execute on the tree interpreter or a
// compiled machine. A compiled instruction that skipped an allocator
// event, double-counted a patch hit, or reordered the trace would
// diverge here.
func TestFleetTelemetryEngineParity(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	inputs := make([][]byte, 16)
	for i := range inputs {
		if i%4 == 0 {
			inputs[i] = []byte{0xEE} // attack
		} else {
			inputs[i] = []byte{0x00}
		}
	}
	serve := func(engine prog.Engine) (*telemetry.Snapshot, Stats) {
		col := telemetry.New(telemetry.Config{})
		f := New(Config{Patches: patches, Telemetry: col})
		if _, err := serveAll(f, p, coder, engine, 1, inputs); err != nil {
			t.Fatal(err)
		}
		st := f.Stats()
		return st.Telemetry, st
	}
	engines := prog.AllEngines()
	tsnap, tstats := serve(engines[0])
	for _, e := range engines[1:] {
		name := e.String()
		snap, stats := serve(e)
		if !reflect.DeepEqual(tsnap.Counters, snap.Counters) {
			t.Errorf("%s: counters diverge\ntree: %v\n%s:   %v", name, tsnap.Counters, name, snap.Counters)
		}
		if tsnap.EventsTotal != snap.EventsTotal {
			t.Errorf("%s: events_total %d != tree %d", name, snap.EventsTotal, tsnap.EventsTotal)
		}
		if !reflect.DeepEqual(tsnap.Events, snap.Events) {
			t.Errorf("%s: event traces diverge (tree %d events, %s %d events)",
				name, len(tsnap.Events), name, len(snap.Events))
		}
		if !reflect.DeepEqual(tstats.PatchHits, stats.PatchHits) {
			t.Errorf("%s: sealed-table patch hits diverge\ntree: %v\n%s:   %v",
				name, tstats.PatchHits, name, stats.PatchHits)
		}
	}
}

// TestFleetWithoutCollector pins the disabled contract: no collector,
// no snapshot, no table tally.
func TestFleetWithoutCollector(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	f := New(Config{Patches: patches})
	if _, err := serveAll(f, p, coder, prog.EngineCompiled, 2, make([][]byte, 8)); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	if stats.Telemetry != nil {
		t.Error("Stats.Telemetry non-nil without a collector")
	}
	if stats.PatchHits != nil {
		t.Error("Stats.PatchHits non-nil without a collector")
	}
}
