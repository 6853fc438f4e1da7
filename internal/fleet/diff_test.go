package fleet

import (
	"errors"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// snapshot is everything observable about one request's execution:
// if a pooled context differs from a fresh one in ANY field here, the
// recycling is leaking state between tenants.
type snapshot struct {
	output     string
	steps      uint64
	cycles     uint64
	encUpdates uint64
	crashed    bool
	faultAddr  uint64
	faultKind  mem.AccessKind
	stats      defense.Stats
}

func snap(t *testing.T, res *prog.Result, d *defense.Defender) snapshot {
	t.Helper()
	s := snapshot{
		output:     string(res.Output),
		steps:      res.Steps,
		cycles:     res.Cycles,
		encUpdates: res.EncUpdates,
		crashed:    res.Crashed(),
		stats:      d.Stats(),
	}
	if res.Fault != nil {
		var fe *mem.FaultError
		if !errors.As(res.Fault, &fe) {
			t.Fatalf("fault is not a FaultError: %v", res.Fault)
		}
		s.faultAddr = fe.Addr
		s.faultKind = fe.Kind
	}
	return s
}

// runOn executes one request on a context and snapshots it. The
// caller decides whether the context is fresh or recycled.
func runOn(t *testing.T, ctx *Context, p *prog.Program, coder *encoding.Coder, input []byte) snapshot {
	t.Helper()
	it, err := prog.New(p, prog.Config{Backend: ctx.Backend(), Coder: coder})
	if err != nil {
		t.Fatal(err)
	}
	res, err := it.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	return snap(t, res, ctx.Defender())
}

// TestFleetPooledBitIdentical: a worker context recycled through
// Reset must be observationally indistinguishable from a freshly
// constructed one — outputs, step and cycle counts, encoding updates,
// defense statistics, and (for crashing requests) the exact fault
// address. Exercised over both a benign/UAF workload and a
// guard-page-crashing overflow, in a mixed request order so each
// request sees a context dirtied by a DIFFERENT prior request.
// Subtest names carry the fleet's allocator, the boundary-tag heap.
func TestFleetPooledBitIdentical(t *testing.T) {
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
		{"uaf", uaf, uafCoder, uafPatches, [][]byte{{0x00}, {0xEE}, {0x00}, {0xEE}, {0xEE}, {0x00}}},
		{"guard-crash", ovf, ovfCoder, ovfPatches, [][]byte{{0}, {1}, {0}, {1}, {1}, {0}}},
	}
	for _, c := range cases {
		t.Run("boundary-tag/"+c.name, func(t *testing.T) {
			cfg := Config{Patches: c.patches}

			// Pooled: ONE context recycled through every request.
			pooledFleet := New(cfg)
			pooled, err := pooledFleet.newContext()
			if err != nil {
				t.Fatal(err)
			}
			var pooledSnaps []snapshot
			for _, in := range c.inputs {
				pooledSnaps = append(pooledSnaps, runOn(t, pooled, c.p, c.coder, in))
				if err := pooled.Reset(); err != nil {
					t.Fatal(err)
				}
			}

			// Fresh: a brand-new context per request.
			freshFleet := New(cfg)
			for i, in := range c.inputs {
				fresh, err := freshFleet.newContext()
				if err != nil {
					t.Fatal(err)
				}
				want := runOn(t, fresh, c.p, c.coder, in)
				if pooledSnaps[i] != want {
					t.Errorf("request %d (%x): pooled context diverges from fresh\npooled: %+v\nfresh:  %+v",
						i, in, pooledSnaps[i], want)
				}
				if c.name == "guard-crash" && in[0] == 1 && !want.crashed {
					t.Fatalf("request %d: overflow did not crash (test is vacuous)", i)
				}
			}
		})
	}
}

// TestFleetPooledBitIdenticalAfterCrash: the hardest recycle — a
// context whose LAST request died mid-request at its guard page (live
// buffer never freed, deferred queue non-empty, protections changed)
// must still recycle into a bit-identical fresh state.
func TestFleetPooledBitIdenticalAfterCrash(t *testing.T) {
	p := overflowProgram()
	coder, patches := overflowSetup(t, p)
	t.Run("boundary-tag", func(t *testing.T) {
		cfg := Config{Patches: patches}
		f := New(cfg)
		ctx, err := f.newContext()
		if err != nil {
			t.Fatal(err)
		}
		crash := runOn(t, ctx, p, coder, []byte{1})
		if !crash.crashed {
			t.Fatal("overflow did not crash")
		}
		if err := ctx.Reset(); err != nil {
			t.Fatal(err)
		}
		afterCrash := runOn(t, ctx, p, coder, []byte{0})

		fresh, err := New(cfg).newContext()
		if err != nil {
			t.Fatal(err)
		}
		want := runOn(t, fresh, p, coder, []byte{0})
		if afterCrash != want {
			t.Errorf("post-crash recycle diverges from fresh\ngot:  %+v\nwant: %+v", afterCrash, want)
		}
	})
}
