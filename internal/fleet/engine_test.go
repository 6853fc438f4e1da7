package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// uafCorpus is n uafProgram requests, every third one the attack.
func uafCorpus(n int) [][]byte {
	inputs := make([][]byte, n)
	for i := range inputs {
		if i%3 == 0 {
			inputs[i] = []byte{0xEE}
		} else {
			inputs[i] = []byte{0x00}
		}
	}
	return inputs
}

// runOnMachine is runOn on a compiled machine: one request on a
// context, snapshotted.
func runOnMachine(t *testing.T, ctx *Context, p *prog.Program, coder *encoding.Coder, input []byte) snapshot {
	t.Helper()
	it, err := newMachine(ctx, p, coder)
	if err != nil {
		t.Fatal(err)
	}
	res, err := it.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	return snap(t, res, ctx.Defender())
}

func newMachine(ctx *Context, p *prog.Program, coder *encoding.Coder) (prog.Exec, error) {
	return prog.NewExec(p, prog.Config{Backend: ctx.Backend(), Coder: coder, Engine: prog.EngineCompiled})
}

// TestFleetVMBitIdenticalAcrossReset: requests served by the compiled
// machine on a RECYCLED context must be bit-identical to the same requests
// served by the tree interpreter on FRESH contexts — the strongest
// cross-product of the two equivalence claims (engine identity and
// recycling identity), including the guard-page crash requests.
// Subtest names carry the fleet's allocator, the boundary-tag heap.
func TestFleetVMBitIdenticalAcrossReset(t *testing.T) {
	uaf := uafProgram()
	uafCoder, uafPatches := analyzeUAF(t, uaf)
	ovf := overflowProgram()
	ovfCoder, ovfPatches := overflowSetup(t, ovf)

	cases := []struct {
		name    string
		p       *prog.Program
		coder   *encoding.Coder
		patches *patch.Set
		inputs  [][]byte
	}{
		{"uaf", uaf, uafCoder, uafPatches, [][]byte{{0x00}, {0xEE}, {0x00}, {0xEE}}},
		{"guard-crash", ovf, ovfCoder, ovfPatches, [][]byte{{0}, {1}, {0}, {1}}},
	}
	for _, c := range cases {
		t.Run("boundary-tag/"+c.name, func(t *testing.T) {
			cfg := Config{Patches: c.patches}

			// Tree over fresh contexts.
			freshFleet := New(cfg)
			var want []snapshot
			for _, in := range c.inputs {
				fresh, err := freshFleet.newContext()
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, runOn(t, fresh, c.p, c.coder, in))
			}

			// The compiled machine over one recycled context.
			ctx, err := New(cfg).newContext()
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range c.inputs {
				got := runOnMachine(t, ctx, c.p, c.coder, in)
				if got != want[i] {
					t.Errorf("request %d (%x): recycled compiled machine diverges from fresh tree\ncompiled: %+v\ntree: %+v",
						i, in, got, want[i])
				}
				if err := ctx.Reset(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFleetVMReusedInstanceAcrossReset: ONE compiled machine kept
// alive across Context.Reset must observe the rebuilt patch table and
// still produce bit-identical snapshots to fresh tree-interpreter
// contexts. State the Machine carried across a recycle would surface
// as diverging PatchedAllocs or defense stats.
func TestFleetVMReusedInstanceAcrossReset(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	cfg := Config{Patches: patches}

	inputs := [][]byte{{0x00}, {0xEE}, {0x00}, {0xEE}, {0xEE}}
	freshFleet := New(cfg)
	var want []snapshot
	for _, in := range inputs {
		fresh, err := freshFleet.newContext()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, runOn(t, fresh, p, coder, in))
	}

	ctx, err := New(cfg).newContext()
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMachine(ctx, p, coder)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		res, err := m.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := snap(t, res, ctx.Defender()); got != want[i] {
			t.Errorf("request %d: reused compiled machine across Reset diverges from fresh tree\ncompiled: %+v\ntree: %+v",
				i, got, want[i])
		}
		if err := ctx.Reset(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetServeEngines: full parallel serving must return the same
// per-request results and merged fleet statistics on every engine.
func TestFleetServeEngines(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	inputs := uafCorpus(24)
	serve := func(engine prog.Engine) ([]*prog.Result, Stats) {
		f := New(Config{Patches: patches})
		res, err := serveAll(f, p, coder, engine, 4, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return res, f.Stats()
	}
	engines := prog.AllEngines()
	tres, tstats := serve(engines[0])
	for _, e := range engines[1:] {
		vres, vstats := serve(e)
		for i := range tres {
			if !bytes.Equal(tres[i].Output, vres[i].Output) ||
				tres[i].Steps != vres[i].Steps ||
				tres[i].Cycles != vres[i].Cycles ||
				tres[i].Crashed() != vres[i].Crashed() {
				t.Errorf("request %d diverges across engines\ntree: %+v\n%v:   %+v", i, tres[i], e, vres[i])
			}
		}
		// ContextsBuilt depends on pool behavior, not the engine
		// contract; everything else must match exactly.
		ts, vs := tstats, vstats
		ts.ContextsBuilt, vs.ContextsBuilt = 0, 0
		if !reflect.DeepEqual(ts, vs) {
			t.Errorf("fleet stats diverge\ntree: %+v\n%v:   %+v", ts, e, vs)
		}
	}
}
