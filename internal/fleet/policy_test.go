package fleet

import (
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// TestFleetPolicyServeMatchesSingleRuns: the policy axis must be
// invisible to the pooling/parallelism machinery — for every family, a
// 4-worker fleet produces exactly the results a standalone defended
// context produces, request for request. Under `go test -race` this
// also pins the policies' concurrency contract: per-worker state
// (bounds index, quarantine queue) never crosses goroutines.
func TestFleetPolicyServeMatchesSingleRuns(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)

	inputs := make([][]byte, 24)
	for i := range inputs {
		if i%3 == 1 {
			inputs[i] = []byte{0xEE} // attack request
		} else {
			inputs[i] = []byte{0x00}
		}
	}

	for _, fam := range defense.AllFamilies() {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			t.Parallel()
			f := New(Config{Patches: patches, Family: fam})
			results, err := serveAll(f, p, coder, prog.EngineCompiled, 4, inputs)
			if err != nil {
				t.Fatal(err)
			}

			ref := New(Config{Patches: patches, Family: fam})
			for i, in := range inputs {
				ctx, err := ref.newContext()
				if err != nil {
					t.Fatal(err)
				}
				it, err := prog.New(p, prog.Config{Backend: ctx.Backend(), Coder: coder})
				if err != nil {
					t.Fatal(err)
				}
				want, err := it.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				got := results[i]
				if got == nil {
					t.Fatalf("request %d has no result", i)
				}
				if string(got.Output) != string(want.Output) || got.Steps != want.Steps {
					t.Errorf("request %d diverged from standalone %v run", i, fam)
				}
				if got.Crashed() != want.Crashed() {
					t.Errorf("request %d crashed=%v, standalone %v", i, got.Crashed(), want.Crashed())
				}
			}

			st := f.Stats()
			if st.Requests != uint64(len(inputs)) {
				t.Errorf("Requests=%d, want %d", st.Requests, len(inputs))
			}
			if st.ContextsBuilt > 4 {
				t.Errorf("ContextsBuilt=%d, want <= 4 (pooling intact under %v)", st.ContextsBuilt, fam)
			}
		})
	}
}

// TestFleetPolicyOutcomes pins what each family actually does with the
// UAF attack when served through the fleet: HT neutralizes it (the
// deferred free keeps the safe value), MESH neutralizes it for every
// allocation (quarantine without needing the patch), and ShadowBound
// misses it (the dangling pointer lands in the recycled groom object,
// in bounds by construction) — its documented temporal gap.
func TestFleetPolicyOutcomes(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	attack := [][]byte{{0xEE}}

	safe := func(fam defense.Family, set *patch.Set) uint64 {
		t.Helper()
		f := New(Config{Patches: set, Family: fam})
		res, err := serveAll(f, p, coder, prog.EngineCompiled, 1, attack)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Crashed() {
			t.Fatalf("%v: UAF read crashed: %v", fam, res[0].Fault)
		}
		return (prog.Value{Bytes: res[0].Output}).Uint()
	}

	if got := safe(defense.FamilyHT, patches); got != 0x5AFE {
		t.Errorf("HT read %#x, want 0x5AFE (deferred free)", got)
	}
	// MESH quarantines without patches at all.
	if got := safe(defense.FamilyMESH, patch.NewSet()); got != 0x5AFE {
		t.Errorf("MESH read %#x, want 0x5AFE (universal quarantine)", got)
	}
	if got := safe(defense.FamilyShadowBound, patches); got != 0xBAD {
		t.Errorf("ShadowBound read %#x, want the groomed 0xBAD (documented temporal miss)", got)
	}
}

// TestFleetPolicySwapKeepsServing: the rollout seam survives the
// policy axis — every family accepts live SwapTable installs and keeps
// serving bit-stable results (non-HT families ignore the table's
// contents but must keep the swap protocol alive for the front-end).
func TestFleetPolicySwapKeepsServing(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	inputs := [][]byte{{0x00}, {0x00}, {0x00}, {0x00}}

	for _, fam := range defense.AllFamilies() {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			f := New(Config{Patches: patch.NewSet(), Family: fam})
			first, err := serveAll(f, p, coder, prog.EngineCompiled, 2, inputs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.SwapTable(patches); err != nil {
				t.Fatalf("SwapTable under %v: %v", fam, err)
			}
			if f.Swaps() != 1 {
				t.Fatalf("Swaps=%d after install, want 1", f.Swaps())
			}
			second, err := serveAll(f, p, coder, prog.EngineCompiled, 2, inputs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range inputs {
				if string(first[i].Output) != string(second[i].Output) {
					t.Errorf("benign request %d changed across swap under %v", i, fam)
				}
			}
		})
	}
}

// TestFleetPolicyStatsMerge: the merged defense counters reflect each
// family's mechanism — MESH quarantines and zero-fills every
// allocation with no patch consulting, ShadowBound does neither.
func TestFleetPolicyStatsMerge(t *testing.T) {
	p := uafProgram()
	coder, patches := analyzeUAF(t, p)
	inputs := [][]byte{{0x00}, {0x00}, {0x00}, {0x00}}

	mesh := New(Config{Patches: patches, Family: defense.FamilyMESH})
	if _, err := serveAll(mesh, p, coder, prog.EngineCompiled, 2, inputs); err != nil {
		t.Fatal(err)
	}
	st := mesh.Stats()
	if st.Defense.DeferredFrees == 0 || st.Defense.ZeroFills == 0 {
		t.Errorf("MESH merged stats missing its mechanisms: %+v", st.Defense)
	}
	if st.Defense.PatchedAllocs != 0 {
		t.Errorf("MESH consulted the patch table: PatchedAllocs=%d", st.Defense.PatchedAllocs)
	}

	sb := New(Config{Patches: patches, Family: defense.FamilyShadowBound})
	if _, err := serveAll(sb, p, coder, prog.EngineCompiled, 2, inputs); err != nil {
		t.Fatal(err)
	}
	st = sb.Stats()
	if st.Defense.DeferredFrees != 0 || st.Defense.ZeroFills != 0 || st.Defense.PatchedAllocs != 0 {
		t.Errorf("ShadowBound merged stats show foreign mechanisms: %+v", st.Defense)
	}
	if st.Defense.Allocs == 0 || st.Defense.Frees == 0 {
		t.Errorf("ShadowBound lost shared alloc/free accounting: %+v", st.Defense)
	}
}
