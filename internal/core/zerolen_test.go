package core

import (
	"fmt"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
)

// zeroLenMemops are a memset and a memcpy in each direction of zero
// bytes at address 0: they touch no memory, so every backend must run
// them as no-ops.
const zeroLenMemops = `program zerolen
func main {
    alloc b = malloc(16)
    let p = 0
    memset p, 1, 0
    memcpy b, p, 0
    memcpy p, b, 0
    free b
}
`

// TestZeroLengthMemsetRuns: the zero-length memops at an unmapped
// address complete without a panic or a fault under the native
// backend, the defended backend of every family, and the shadow
// analysis. Subtests carry the engine a System runs; the tree half of
// this check is prog's workload differential, whose corpus holds the
// same program.
func TestZeroLengthMemsetRuns(t *testing.T) {
	p, err := progtext.Parse(zeroLenMemops)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range defense.AllFamilies() {
		t.Run(fmt.Sprintf("%v/%v", prog.EngineCompiled, fam), func(t *testing.T) {
			sys, err := NewSystem(p, Options{Family: fam})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.RunNative(nil)
			if err != nil || res.Crashed() {
				t.Fatalf("native: err %v, fault %v", err, res.Fault)
			}
			run, err := sys.RunDefended(nil, nil)
			if err != nil || run.Result.Crashed() || run.HeapErr != nil {
				t.Fatalf("defended: err %v, run %+v", err, run)
			}
			rep, err := sys.GeneratePatches(nil)
			if err != nil || rep.Result.Crashed() || len(rep.Warnings) != 0 {
				t.Fatalf("shadow: err %v, report %+v", err, rep)
			}
		})
	}
}
