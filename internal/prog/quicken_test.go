package prog_test

// Conformance table for the compiled engine's quickened shapes: the
// cold tier's unboxed scalar flow and the fused compare+branch and
// latch pairs. Every row runs on the tree-walker, a never-promoting
// Machine (cold tier only) and a threshold-1 Machine (cold on the first
// input, closure code on the second), under the native backend and
// under the shadow backend, whose use points must fire in the tree's
// order and number. The textual rows also seed FuzzVMvsTree.

import (
	"fmt"
	"reflect"
	"testing"

	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/shadow"
)

// quickenedShapes are the textual rows of the conformance table.
var quickenedShapes = []struct {
	name string
	src  string
}{
	{"clean-loops", `func main {
 let i = 0
 let acc = 0
 while (i < 20) {
  let j = 0
  while (j != 3) {
   let acc = ((acc * 31) ^ (i + j))
   let j = (j + 1)
  }
  let i = (i + 2)
 }
 let k = 5
 while (k > 0) {
  let k = (k - 1)
 }
 let m = 3
 while m {
  let m = (m - 1)
 }
 outputvar acc
 return acc
}
`},
	{"shadowed-operands", `func main {
 alloc p = malloc(16)
 load x, p, 8
 let y = (x & 0)
 if (y < 5) {
  let z = 1
 }
 let i = 0
 while (i < 4) {
  let i = ((i + y) + 1)
 }
 outputvar i
 free p
 return i
}
`},
	{"narrow-operands", `func main {
 input n, 1
 let i = 0
 while (i < n) {
  let i = (i + 1)
 }
 outputvar i
}
`},
	{"undef-loop-cond", `func main {
 let i = 0
 while (i < n) {
  let i = (i + 1)
 }
}
`},
	{"undef-loop-cond-left", `func main {
 while (ghost < 3) {
  nop
 }
}
`},
	{"undef-latch", `func main {
 let i = 0
 while (i < 3) {
  let i = (i + step)
 }
}
`},
	{"div-mod-zero-fused", `func main {
 let z = 0
 let i = 0
 let d = 7
 while ((i + (i / z)) < 5) {
  if (i % z) {
   let d = 1
  }
  let i = (i + 1)
  let d = (d / z)
 }
 outputvar d
 outputvar i
}
`},
	{"if-ends-loop-body", `func main {
 let i = 0
 let odd = 0
 let even = 0
 while (i < 9) {
  let i = (i + 1)
  if (i & 1) {
   let odd = (odd + i)
  }
 }
 let j = 0
 while (j < 6) {
  let j = (j + 1)
  if (j & 1) {
   let odd = (odd + j)
  } else {
   let even = (even + j)
  }
 }
 outputvar odd
 outputvar even
}
`},
	{"ticked-branch", `func main {
 let i = 0
 let n = 0
 while (i < 6) {
  let c = (i < 3)
  if c {
   let n = (n + 1)
  }
  let i = (i + 1)
 }
 outputvar n
}
`},
	{"counted-loop", countedLoopSrc},
}

// countedLoopSrc ticks step 1 on `let`, step 2 on the while, then odd
// steps on the fused compare+branch head and even steps on the fused
// latch, so a sweep of the step limit stops the run on each pair.
const countedLoopSrc = `func main {
 let i = 0
 while (i < 100) {
  let i = (i + 1)
 }
}
`

// unknownOp is a BinOp no ALU implements: compiled through, rejected at
// run time with the tree-walker's error.
const unknownOp = prog.BinOp(200)

// useEvent is one CheckUse call as the backend saw it.
type useEvent struct {
	kind  prog.UseKind
	u     uint64
	valid bool
}

// useRecorder is the shadow backend with its use points logged.
type useRecorder struct {
	*shadow.Backend
	uses []useEvent
}

func (r *useRecorder) CheckUse(v prog.Value, kind prog.UseKind, ccid uint64) {
	r.uses = append(r.uses, useEvent{kind, v.Uint(), v.FullyValid()})
	r.Backend.CheckUse(v, kind, ccid)
}

// conform runs p on the tree, a never-promoting Machine and a
// threshold-1 Machine, each over its own backend from mk, twice per
// input, and requires identical observables and backend cycles. It
// returns the tree's backend for row-specific checks.
func conform(t *testing.T, p *prog.Program, cfg prog.Config, mk func(t *testing.T) prog.HeapBackend, inputs [][]byte) prog.HeapBackend {
	t.Helper()
	tcfg := cfg
	tcfg.Backend = mk(t)
	it, err := prog.New(p, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	machine := func(tierUp uint64) (*prog.Machine, prog.HeapBackend) {
		mcfg := cfg
		mcfg.Backend, mcfg.Engine, mcfg.TierUp = mk(t), prog.EngineCompiled, tierUp
		ex, err := prog.NewExec(p, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		return ex.(*prog.Machine), mcfg.Backend
	}
	cold, cb := machine(neverPromote)
	hot, hb := machine(1)
	for _, in := range inputs {
		for round := 0; round < 2; round++ {
			tr, terr := it.Run(in)
			cr, cerr := cold.Run(in)
			hr, herr := hot.Run(in)
			sameRun(t, fmt.Sprintf("%s/cold/%d", p.Name, round), tr, cr, terr, cerr)
			sameRun(t, fmt.Sprintf("%s/hot/%d", p.Name, round), tr, hr, terr, herr)
			if tc, cc, hc := tcfg.Backend.Cycles(), cb.Cycles(), hb.Cycles(); tc != cc || tc != hc {
				t.Errorf("%s: backend cycles diverge: tree %d cold %d hot %d", p.Name, tc, cc, hc)
			}
		}
	}
	if cold.Promotions() != 0 {
		t.Errorf("%s: never-promoting Machine tiered up", p.Name)
	}
	if tr, ok := tcfg.Backend.(*useRecorder); ok {
		for label, b := range map[string]prog.HeapBackend{"cold": cb, "hot": hb} {
			got := b.(*useRecorder)
			if !reflect.DeepEqual(tr.uses, got.uses) {
				t.Errorf("%s: %s use points diverge\ntree: %v\n%s: %v", p.Name, label, tr.uses, label, got.uses)
			}
			if !reflect.DeepEqual(tr.Warnings(), got.Warnings()) {
				t.Errorf("%s: %s warnings diverge\ntree: %v\n%s: %v", p.Name, label, tr.Warnings(), label, got.Warnings())
			}
		}
	}
	return tcfg.Backend
}

// TestQuickenedShapes is the conformance table (see the file comment).
func TestQuickenedShapes(t *testing.T) {
	type row struct {
		name string
		p    *prog.Program
		cfg  prog.Config
	}
	var rows []row
	for _, s := range quickenedShapes {
		p, err := progtext.Parse(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		p.Name = s.name
		rows = append(rows, row{s.name, p, prog.Config{}})
	}
	// An unknown operator on the fused loop head and on the fused latch.
	rows = append(rows,
		row{"unknown-op-head", prog.MustLink(&prog.Program{Name: "unknown-op-head", Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Assign{Dst: "i", E: prog.C(0)},
				prog.While{Cond: prog.Bin{Op: unknownOp, A: prog.V("i"), B: prog.C(3)}, Body: []prog.Stmt{prog.Nop{}}},
			}},
		}}), prog.Config{}},
		row{"unknown-op-latch", prog.MustLink(&prog.Program{Name: "unknown-op-latch", Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.Assign{Dst: "i", E: prog.C(0)},
				prog.While{Cond: prog.Lt(prog.V("i"), prog.C(3)), Body: []prog.Stmt{
					prog.Assign{Dst: "i", E: prog.Bin{Op: unknownOp, A: prog.V("i"), B: prog.C(1)}},
				}},
			}},
		}}), prog.Config{}},
	)
	// Every step limit up to a few loop iterations: the limit lands on
	// each fused pair's tick in turn.
	for ms := uint64(1); ms <= 12; ms++ {
		p, err := progtext.Parse(countedLoopSrc)
		if err != nil {
			t.Fatal(err)
		}
		p.Name = fmt.Sprintf("step-limit-%d", ms)
		rows = append(rows, row{p.Name, p, prog.Config{MaxSteps: ms}})
	}

	recorder := func(t *testing.T) prog.HeapBackend { return &useRecorder{Backend: newShadow(t)} }
	inputs := [][]byte{{3}, {0}}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			conform(t, r.p, r.cfg, newNativeBackend, inputs)
			conform(t, r.p, r.cfg, recorder, inputs)
		})
	}

	// The shadowed row's use points: the `if` fires once with an
	// invalid condition, then the loop head fires once per iteration,
	// invalid from the second iteration on (the latch adds the
	// shadowed y into i).
	var p *prog.Program
	for _, r := range rows {
		if r.name == "shadowed-operands" {
			p = r.p
		}
	}
	rec := conform(t, p, prog.Config{}, recorder, [][]byte{nil}).(*useRecorder)
	var ctl, invalid int
	for _, u := range rec.uses {
		if u.kind == prog.UseControlFlow {
			ctl++
			if !u.valid {
				invalid++
			}
		}
	}
	// Two runs: 1 if + 5 loop heads each, 1 + 4 of them invalid.
	if ctl != 12 || invalid != 10 {
		t.Errorf("shadowed row: %d control-flow uses (%d invalid), want 12 (10 invalid)", ctl, invalid)
	}
}

// TestQuickenedShapesThreads: RunThreads yields at the same statement
// boundaries on every engine configuration, for quanta that land on
// fused pairs, unfused pairs and allocation sites alike.
func TestQuickenedShapesThreads(t *testing.T) {
	p, err := progtext.Parse(`func main {
 input n, 1
 let m = (n + 0)
 let i = 0
 while (i < m) {
  alloc p = malloc(24)
  outputvar p
  let i = (i + 1)
  free p
 }
 let j = 0
 while (j < n) {
  let j = (j + 1)
 }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{{3}, {5}, {2}}
	run := func(engine prog.Engine, tierUp, quantum uint64) ([]*prog.Result, uint64) {
		backend := newNativeBackend(t)
		res, err := prog.RunThreads(p, prog.Config{Backend: backend, Engine: engine, TierUp: tierUp}, inputs, quantum)
		if err != nil {
			t.Fatal(err)
		}
		return res, backend.Cycles()
	}
	for _, q := range []uint64{1, 2, 3, 5, 7} {
		tres, tcyc := run(prog.EngineTree, 0, q)
		cres, ccyc := run(prog.EngineCompiled, neverPromote, q)
		hres, hcyc := run(prog.EngineCompiled, 1, q)
		for i := range tres {
			sameRun(t, fmt.Sprintf("q%d/thread%d/cold", q, i), tres[i], cres[i], nil, nil)
			sameRun(t, fmt.Sprintf("q%d/thread%d/hot", q, i), tres[i], hres[i], nil, nil)
		}
		if tcyc != ccyc || tcyc != hcyc {
			t.Errorf("quantum %d: shared backend cycles: tree %d cold %d hot %d", q, tcyc, ccyc, hcyc)
		}
	}
}
