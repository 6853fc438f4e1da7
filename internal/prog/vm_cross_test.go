package prog_test

// Cross-package differential verification of every row of the
// conformance table (prog.EngineConfigs) against the tree-walking
// reference over the analysis (shadow) and defense backends, driven by
// the Table II vulnerability corpus. These live in an external test
// package because shadow, defense, and vuln all import prog. The
// in-package suite (vm_test.go) covers the native backend, error
// paths, and the zero-allocation pin.

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

// newExec builds one executor of p on engine over backend.
func newExec(t *testing.T, p *prog.Program, coder *encoding.Coder, backend prog.HeapBackend, engine prog.Engine) prog.Exec {
	t.Helper()
	ex, err := prog.NewExec(p, prog.Config{Backend: backend, Coder: coder, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

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

func newNativeBackend(t *testing.T) prog.HeapBackend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.NewNativeBackend(space)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

func newDefense(t *testing.T, cfg defense.Config) *defense.Backend {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := defense.NewBackend(space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVMDifferentialShadow: under the analysis backend every engine
// must record the exact same warning stream as the tree-walker (type,
// addresses, access and allocation CCIDs, detail text) for every
// corpus case, on benign and attack inputs alike. The shadow backend
// observes CheckUse, so this also proves no engine elides use checks
// for it.
func TestVMDifferentialShadow(t *testing.T) {
	for _, c := range vuln.Named() {
		t.Run(c.Name, func(t *testing.T) {
			coder := corpusCoder(t, c.Program)
			inputs := append(append([][]byte{}, c.Benign...), c.Attack)

			for _, ec := range prog.EngineConfigs[1:] {
				tb := newShadow(t)
				it := newExec(t, c.Program, coder, tb, prog.EngineConfigs[0].Engine)
				b := newShadow(t)
				ex := newExec(t, c.Program, coder, b, ec.Engine)
				for _, in := range inputs {
					tr, terr := it.Run(in)
					vr, verr := ex.Run(in)
					sameRun(t, c.Name+"/"+ec.Name, tr, vr, terr, verr)
				}
				if tw, vw := tb.Warnings(), b.Warnings(); !reflect.DeepEqual(tw, vw) {
					t.Errorf("warning streams diverge\ntree: %v\n%s: %v", tw, ec.Name, vw)
				}
				if tc, vc := tb.Cycles(), b.Cycles(); tc != vc {
					t.Errorf("shadow cycles: tree %d %s %d", tc, ec.Name, vc)
				}
			}
		})
	}
}

// TestVMDifferentialDefense closes the paper's loop on every engine:
// analyze the attack under shadow (tree engine), turn the warnings
// into patches, then run benign and attack inputs on patched defense
// backends and require identical results AND identical defense
// statistics — Lookups, PatchedAllocs, GuardPages, ZeroFills,
// DeferredFrees, evictions, all of it.
func TestVMDifferentialDefense(t *testing.T) {
	var sawPatched bool
	for _, c := range vuln.Named() {
		t.Run(c.Name, func(t *testing.T) {
			coder := corpusCoder(t, c.Program)

			// Offline analysis pass on the reference engine.
			sb := newShadow(t)
			if _, err := newExec(t, c.Program, coder, sb, prog.EngineTree).Run(c.Attack); err != nil {
				t.Fatalf("analysis run: %v", err)
			}
			patches := patch.NewSet()
			for _, w := range sb.Warnings() {
				patches.Add(w.Patch())
			}

			inputs := append(append([][]byte{}, c.Benign...), c.Attack)
			for _, ec := range prog.EngineConfigs[1:] {
				tb := newDefense(t, defense.Config{Patches: patches})
				tit := newExec(t, c.Program, coder, tb, prog.EngineConfigs[0].Engine)
				b := newDefense(t, defense.Config{Patches: patches})
				ex := newExec(t, c.Program, coder, b, ec.Engine)
				for _, in := range inputs {
					tr, terr := tit.Run(in)
					vr, verr := ex.Run(in)
					sameRun(t, c.Name+"/"+ec.Name, tr, vr, terr, verr)
				}
				ts, vs := tb.Defender().Stats(), b.Defender().Stats()
				if ts != vs {
					t.Errorf("defense stats diverge\ntree: %+v\n%s: %+v", ts, ec.Name, vs)
				}
				if tc, vc := tb.Cycles(), b.Cycles(); tc != vc {
					t.Errorf("defense cycles: tree %d %s %d", tc, ec.Name, vc)
				}
				if ts.PatchedAllocs > 0 {
					sawPatched = true
				}
			}
		})
	}
	if !sawPatched {
		t.Error("no corpus case produced a patched allocation")
	}
}

// TestOneLookupPerAllocation pins the paper's per-allocation cost
// model (defense.Stats.Lookups: one patch-table probe per allocation in
// ModeFull) on every engine: over the whole vulnerability corpus, with
// the patches its own analysis derives, each benign and attack run
// probes the table exactly as many times as it allocates, and never
// more — no engine adds a probe of its own.
func TestOneLookupPerAllocation(t *testing.T) {
	var runs, patched int
	for _, c := range vuln.AllCases() {
		t.Run(c.Name, func(t *testing.T) {
			coder := corpusCoder(t, c.Program)
			sb := newShadow(t)
			if _, err := newExec(t, c.Program, coder, sb, prog.EngineTree).Run(c.Attack); err != nil {
				t.Fatalf("analysis run: %v", err)
			}
			patches := patch.NewSet()
			for _, w := range sb.Warnings() {
				patches.Add(w.Patch())
			}
			inputs := append(append([][]byte{}, c.Benign...), c.Attack)
			for _, e := range prog.AllEngines() {
				for i, in := range inputs {
					b := newDefense(t, defense.Config{Patches: patches})
					res, err := newExec(t, c.Program, coder, b, e).Run(in)
					if err != nil {
						t.Fatalf("%v input %d: %v", e, i, err)
					}
					st := b.Defender().Stats()
					if st.Lookups != res.Allocs {
						t.Errorf("%v input %d: %d lookups for %d allocations", e, i, st.Lookups, res.Allocs)
					}
					runs++
					if st.PatchedAllocs > 0 {
						patched++
					}
				}
			}
		})
	}
	if patched == 0 {
		t.Fatal("no run allocated through a patch")
	}
	t.Logf("%d runs, %d with patched allocations", runs, patched)
}
