package core

import (
	"fmt"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
)

// zeroLenMemset is a memset of zero bytes at address 0: it touches no
// memory, so every backend must run it as a no-op.
const zeroLenMemset = `program zerolen
func main {
    alloc b = malloc(16)
    let p = 0
    memset p, 1, 0
    free b
}
`

// TestZeroLengthMemsetRuns: the zero-length memset at an unmapped
// address completes without a panic or a fault on both engines under
// the native backend, the defended backend of every family, and the
// shadow analysis.
func TestZeroLengthMemsetRuns(t *testing.T) {
	p, err := progtext.Parse(zeroLenMemset)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range prog.AllEngines() {
		for _, fam := range defense.AllFamilies() {
			t.Run(fmt.Sprintf("%v/%v", engine, fam), func(t *testing.T) {
				sys, err := NewSystem(p, Options{Engine: engine, Family: fam})
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
}
