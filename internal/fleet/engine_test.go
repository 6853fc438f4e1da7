package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// neverPromote is a tier-up threshold no test run reaches: a compiled
// machine configured with it stays on the cold bytecode tier.
const neverPromote = 1 << 40

// midCorpusTierUp is a tier-up threshold worth a few requests of
// uafProgram's heat: a machine kept across uafCorpus serves its first
// requests cold and promotes its handler a few requests in.
// TestMidCorpusTierUp pins where that lands.
const midCorpusTierUp = 24

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

// machineTiers are the two compiled-machine configurations every
// engine cross-test compares with the tree interpreter: cold-only and
// immediately promoting.
var machineTiers = []struct {
	name   string
	tierUp uint64
}{{"cold", neverPromote}, {"hot", 1}}

// runOnMachine is runOn on a compiled machine with the given tier-up
// threshold: one request on a context, snapshotted.
func runOnMachine(t *testing.T, tierUp uint64, ctx *Context, p *prog.Program, coder *encoding.Coder, input []byte) snapshot {
	t.Helper()
	it, err := newMachine(ctx, p, coder, tierUp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := it.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	return snap(t, res, ctx.Defender())
}

func newMachine(ctx *Context, p *prog.Program, coder *encoding.Coder, tierUp uint64) (prog.Exec, error) {
	return prog.NewExec(p, prog.Config{Backend: ctx.Backend(), Coder: coder, Engine: prog.EngineCompiled, TierUp: tierUp})
}

// TestFleetVMBitIdenticalAcrossReset: requests served by the compiled
// machine — on either tier — on a RECYCLED context must be
// bit-identical to the same requests
// served by the tree interpreter on FRESH contexts — the strongest
// cross-product of the two equivalence claims (engine identity and
// recycling identity), over both allocators, including the guard-page
// crash requests.
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
	for _, kind := range []AllocKind{AllocBoundaryTag, AllocPool} {
		for _, c := range cases {
			t.Run(kind.String()+"/"+c.name, func(t *testing.T) {
				cfg := Config{Workers: 1, Defended: true, Patches: c.patches, Alloc: kind}

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

				// Each machine tier over one recycled context.
				for _, tier := range machineTiers {
					ctx, err := New(cfg).newContext()
					if err != nil {
						t.Fatal(err)
					}
					for i, in := range c.inputs {
						got := runOnMachine(t, tier.tierUp, ctx, c.p, c.coder, in)
						if got != want[i] {
							t.Errorf("request %d (%x): recycled %s machine diverges from fresh tree\n%s: %+v\ntree: %+v",
								i, in, tier.name, tier.name, got, want[i])
						}
						if err := ctx.Reset(); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// TestFleetVMReusedInstanceAcrossReset pins the inline-cache
// invalidation contract: ONE compiled machine per tier kept alive across
// Context.Reset must observe the rebuilt patch table (the defender
// bumps its generation on Reset) and still produce bit-identical
// snapshots to fresh tree-interpreter contexts. A stale verdict cache
// would surface as diverging PatchedAllocs or defense stats.
func TestFleetVMReusedInstanceAcrossReset(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	cfg := Config{Workers: 1, Defended: true, Patches: patches}

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

	for _, tier := range machineTiers {
		ctx, err := New(cfg).newContext()
		if err != nil {
			t.Fatal(err)
		}
		m, err := newMachine(ctx, p, coder, tier.tierUp)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			res, err := m.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			if got := snap(t, res, ctx.Defender()); got != want[i] {
				t.Errorf("request %d: reused %s machine across Reset diverges from fresh tree\n%s: %+v\ntree: %+v",
					i, tier.name, tier.name, got, want[i])
			}
			if err := ctx.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFleetWorkerPromotesAcrossRequests: at the default threshold, a
// worker that keeps one compiled machine across requests — recycling
// its context in between, as Serve and the HTTP front-end do — heats
// its request handler over many short activations and promotes it,
// although no single request comes near the threshold.
func TestFleetWorkerPromotesAcrossRequests(t *testing.T) {
	svc := workload.Nginx()
	p, err := svc.VulnerableProgram()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Workers: 1, Defended: true})
	ctx, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release(ctx)
	ex, err := prog.NewExec(p, prog.Config{Backend: ctx.Backend(), Coder: coder})
	if err != nil {
		t.Fatal(err)
	}
	m := ex.(*prog.Machine)
	for i := 0; i < 1000; i++ {
		res, err := m.Run(svc.BenignRequest())
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashed() {
			t.Fatalf("request %d crashed: %v", i, res.Fault)
		}
		if i == 0 && m.Promotions() != 0 {
			t.Errorf("first request promoted %d functions; one request is far below the default threshold", m.Promotions())
		}
		if err := ctx.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Promotions() == 0 {
		t.Error("1,000 requests on one reused machine promoted nothing at the default threshold")
	}
}

// TestMidCorpusTierUp: at midCorpusTierUp, one compiled machine
// reused across uafCorpus promotes nothing during its first two
// requests and promotes its handler by the sixth, so the mid-corpus
// rows below really switch tiers between requests.
func TestMidCorpusTierUp(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	ctx, err := New(Config{Workers: 1, Defended: true, Patches: patches}).newContext()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := newMachine(ctx, p, coder, midCorpusTierUp)
	if err != nil {
		t.Fatal(err)
	}
	m := ex.(*prog.Machine)
	for i, in := range uafCorpus(6) {
		if _, err := m.Run(in); err != nil {
			t.Fatal(err)
		}
		if i < 2 && m.Promotions() != 0 {
			t.Errorf("request %d promoted %d functions; want the first two requests cold", i, m.Promotions())
		}
		if err := ctx.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Promotions() == 0 {
		t.Error("six requests on one reused machine promoted nothing at midCorpusTierUp")
	}
}

// TestFleetServeEngines: full parallel Serve must return the same
// per-request results and merged fleet statistics on the tree
// interpreter and on compiled machines that never promote, promote
// mid-corpus, or promote immediately. In the mid-corpus row each
// worker serves its first requests cold; a worker that gets a few
// more promotes its handler (TestMidCorpusTierUp) and runs the rest
// on closure code, through the shared fleet-wide cache.
func TestFleetServeEngines(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	inputs := uafCorpus(24)
	serve := func(engine prog.Engine, tierUp uint64) ([]*prog.Result, Stats) {
		f := New(Config{Workers: 4, Defended: true, Patches: patches, Engine: engine, TierUp: tierUp})
		res, err := f.Serve(p, coder, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return res, f.Stats()
	}
	tres, tstats := serve(prog.EngineTree, 0)
	for _, c := range []struct {
		name   string
		engine prog.Engine
		tierUp uint64
	}{
		{"compiled-cold", prog.EngineCompiled, neverPromote},
		{"compiled-mid-corpus", prog.EngineCompiled, midCorpusTierUp},
		{"compiled-immediate", prog.EngineCompiled, 1},
	} {
		vres, vstats := serve(c.engine, c.tierUp)
		for i := range tres {
			if !bytes.Equal(tres[i].Output, vres[i].Output) ||
				tres[i].Steps != vres[i].Steps ||
				tres[i].Cycles != vres[i].Cycles ||
				tres[i].Crashed() != vres[i].Crashed() {
				t.Errorf("request %d diverges across engines\ntree: %+v\n%s:   %+v", i, tres[i], c.name, vres[i])
			}
		}
		// ContextsBuilt depends on pool behavior, not the engine
		// contract; everything else must match exactly.
		ts, vs := tstats, vstats
		ts.ContextsBuilt, vs.ContextsBuilt = 0, 0
		if !reflect.DeepEqual(ts, vs) {
			t.Errorf("fleet stats diverge\ntree: %+v\n%s:   %+v", ts, c.name, vs)
		}
	}
}
