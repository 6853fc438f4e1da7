package prog_test

// Cross-package differential verification of the compiled engine —
// a never-promoting Machine on the cold bytecode tier and a threshold-2
// Machine that promotes mid-corpus — against the tree-walking
// interpreter over the analysis (shadow) and defense backends, driven
// by the Table II vulnerability corpus. These live in an external test
// package because shadow, defense, and vuln all import prog. The in-package suite (vm_test.go) covers the native
// backend, error paths, and the zero-allocation pin.

import (
	"bytes"
	"reflect"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/shadow"
	"heaptherapy/internal/vuln"
)

// newMachine prepares p for the compiled engine at the given tier-up
// threshold and builds one Machine over backend.
func newMachine(t *testing.T, p *prog.Program, coder *encoding.Coder, backend prog.HeapBackend, tierUp uint64) *prog.Machine {
	t.Helper()
	ex, err := prog.NewExec(p, prog.Config{Backend: backend, Coder: coder, Engine: prog.EngineCompiled, TierUp: tierUp})
	if err != nil {
		t.Fatal(err)
	}
	return ex.(*prog.Machine)
}

// neverPromote is a tier-up threshold no corpus run reaches.
const neverPromote = 1 << 40

// sameRun requires two executions to be observationally identical.
func sameRun(t *testing.T, label string, tr, vr *prog.Result, terr, verr error) {
	t.Helper()
	if (terr != nil) != (verr != nil) {
		t.Fatalf("%s: tree err = %v, machine err = %v", label, terr, verr)
	}
	if terr != nil {
		if terr.Error() != verr.Error() {
			t.Fatalf("%s: error mismatch\ntree:    %v\nmachine: %v", label, terr, verr)
		}
		return
	}
	if !bytes.Equal(tr.Output, vr.Output) {
		t.Errorf("%s: output mismatch\ntree:    %x\nmachine: %x", label, tr.Output, vr.Output)
	}
	if !bytes.Equal(tr.Returned.Bytes, vr.Returned.Bytes) ||
		!bytes.Equal(tr.Returned.Valid, vr.Returned.Valid) ||
		!reflect.DeepEqual(tr.Returned.Origin, vr.Returned.Origin) {
		t.Errorf("%s: returned value mismatch\ntree:    %+v\nmachine: %+v", label, tr.Returned, vr.Returned)
	}
	if (tr.Fault != nil) != (vr.Fault != nil) {
		t.Fatalf("%s: fault mismatch: tree %v machine %v", label, tr.Fault, vr.Fault)
	}
	if tr.Fault != nil && tr.Fault.Error() != vr.Fault.Error() {
		t.Errorf("%s: fault text mismatch\ntree:    %v\nmachine: %v", label, tr.Fault, vr.Fault)
	}
	if tr.Steps != vr.Steps || tr.Cycles != vr.Cycles || tr.InterpCycles != vr.InterpCycles ||
		tr.EncUpdates != vr.EncUpdates || tr.Allocs != vr.Allocs || tr.Frees != vr.Frees ||
		tr.AllocsByFn != vr.AllocsByFn {
		t.Errorf("%s: statistics mismatch\ntree:    %+v\nmachine: %+v", label, tr, vr)
	}
}

func corpusCoder(t *testing.T, p *prog.Program) *encoding.Coder {
	t.Helper()
	plan, err := encoding.NewPlan(encoding.SchemeTCS, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCCE, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return coder
}

func newShadow(t *testing.T) *shadow.Backend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := shadow.New(space, shadow.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newDefense(t *testing.T, patches *patch.Set) *defense.Backend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := defense.NewBackend(space, defense.Config{Patches: patches})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVMDifferentialShadow: under the analysis backend the tree-walker
// and both Machines must record the exact same warning stream (type,
// addresses, access and allocation CCIDs, detail text) for every
// corpus case, on benign and attack inputs alike. The shadow backend
// observes CheckUse, so this also proves neither tier elides use
// checks for it. The promoting machine runs with a threshold of 2, so
// functions promote in the middle of the input sequence and later
// inputs execute closure code.
func TestVMDifferentialShadow(t *testing.T) {
	for _, c := range vuln.Named() {
		t.Run(c.Name, func(t *testing.T) {
			coder := corpusCoder(t, c.Program)
			inputs := append(append([][]byte{}, c.Benign...), c.Attack)

			tb := newShadow(t)
			it, err := prog.New(c.Program, prog.Config{Backend: tb, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			cb := newShadow(t)
			cold := newMachine(t, c.Program, coder, cb, neverPromote)
			mb := newShadow(t)
			m := newMachine(t, c.Program, coder, mb, 2)
			for _, in := range inputs {
				tr, terr := it.Run(in)
				vr, verr := cold.Run(in)
				sameRun(t, c.Name, tr, vr, terr, verr)
				mr, merr := m.Run(in)
				sameRun(t, c.Name+"/compiled", tr, mr, terr, merr)
			}
			if tw, vw := tb.Warnings(), cb.Warnings(); !reflect.DeepEqual(tw, vw) {
				t.Errorf("warning streams diverge\ntree: %v\ncold: %v", tw, vw)
			}
			if tw, mw := tb.Warnings(), mb.Warnings(); !reflect.DeepEqual(tw, mw) {
				t.Errorf("warning streams diverge\ntree:     %v\ncompiled: %v", tw, mw)
			}
			if tc, vc := tb.Cycles(), cb.Cycles(); tc != vc {
				t.Errorf("shadow cycles: tree %d cold %d", tc, vc)
			}
			if tc, mc := tb.Cycles(), mb.Cycles(); tc != mc {
				t.Errorf("shadow cycles: tree %d compiled %d", tc, mc)
			}
		})
	}
}

// TestVMDifferentialDefense closes the paper's loop on every engine:
// analyze the attack under shadow (tree engine), turn the warnings
// into patches, then run benign and attack inputs on patched defense
// backends and require identical results AND identical defense
// statistics — Lookups, PatchedAllocs, GuardPages, ZeroFills,
// DeferredFrees, evictions, all of it. Patched sites exercise both
// tiers' patch-verdict inline caches with hits on every
// generation-stable allocation.
func TestVMDifferentialDefense(t *testing.T) {
	var sawPatched bool
	for _, c := range vuln.Named() {
		t.Run(c.Name, func(t *testing.T) {
			coder := corpusCoder(t, c.Program)

			// Offline analysis pass on the reference engine.
			sb := newShadow(t)
			it, err := prog.New(c.Program, prog.Config{Backend: sb, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := it.Run(c.Attack); err != nil {
				t.Fatalf("analysis run: %v", err)
			}
			patches := patch.NewSet()
			for _, w := range sb.Warnings() {
				patches.Add(w.Patch())
			}

			inputs := append(append([][]byte{}, c.Benign...), c.Attack)

			tb := newDefense(t, patches)
			tit, err := prog.New(c.Program, prog.Config{Backend: tb, Coder: coder})
			if err != nil {
				t.Fatal(err)
			}
			cb := newDefense(t, patches)
			cold := newMachine(t, c.Program, coder, cb, neverPromote)
			mbk := newDefense(t, patches)
			m := newMachine(t, c.Program, coder, mbk, 2)
			for _, in := range inputs {
				tr, terr := tit.Run(in)
				vr, verr := cold.Run(in)
				sameRun(t, c.Name, tr, vr, terr, verr)
				mr, merr := m.Run(in)
				sameRun(t, c.Name+"/compiled", tr, mr, terr, merr)
			}
			ts, vs := tb.Defender().Stats(), cb.Defender().Stats()
			if ts != vs {
				t.Errorf("defense stats diverge\ntree: %+v\ncold: %+v", ts, vs)
			}
			if ms := mbk.Defender().Stats(); ts != ms {
				t.Errorf("defense stats diverge\ntree:     %+v\ncompiled: %+v", ts, ms)
			}
			if tc, vc := tb.Cycles(), cb.Cycles(); tc != vc {
				t.Errorf("defense cycles: tree %d cold %d", tc, vc)
			}
			if tc, mc := tb.Cycles(), mbk.Cycles(); tc != mc {
				t.Errorf("defense cycles: tree %d compiled %d", tc, mc)
			}
			if ts.PatchedAllocs > 0 {
				sawPatched = true
			}

			// The cold tier's verdict inline caches must agree with the
			// defender's own alloc-time classification — and so must
			// the closure tier's, which shares the cache storage but
			// bakes the lookup into closures.
			var icPatched uint64
			for _, s := range cold.SiteProfile() {
				icPatched += s.PatchedAllocs
			}
			if icPatched != vs.PatchedAllocs {
				t.Errorf("inline-cache patched count %d != defender PatchedAllocs %d", icPatched, vs.PatchedAllocs)
			}
			var mcPatched uint64
			for _, s := range m.SiteProfile() {
				mcPatched += s.PatchedAllocs
			}
			if want := mbk.Defender().Stats().PatchedAllocs; mcPatched != want {
				t.Errorf("compiled inline-cache patched count %d != defender PatchedAllocs %d", mcPatched, want)
			}
		})
	}
	if !sawPatched {
		t.Error("no corpus case produced a patched allocation; verdict caches untested")
	}
}
