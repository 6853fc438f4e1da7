package prog

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"heaptherapy/internal/mem"
)

// hookPeriods are the quantum periods the boundary tests sweep: every
// statement, small primes, and the campaign walker's period.
var hookPeriods = []uint64{1, 2, 3, 5, 7, 128}

// execSteps reads an executor's step counter from inside a hook.
func execSteps(ex Exec) uint64 {
	switch e := ex.(type) {
	case *Interp:
		return e.steps
	case *Machine:
		return e.steps
	}
	panic(fmt.Sprintf("execSteps: %T", ex))
}

// boundaryProgram loops 40 times per input byte, so one program
// serves short runs, runs past every period, and runs past a limit.
func boundaryProgram() *Program {
	return MustLink(&Program{
		Name: "boundaries",
		Funcs: map[string]*Func{
			"main": {Body: []Stmt{
				Alloc{Dst: "p", Size: C(64)},
				Assign{Dst: "i", E: C(0)},
				Assign{Dst: "n", E: Mul(InputLen{}, C(40))},
				While{Cond: Lt(V("i"), V("n")), Body: []Stmt{
					Store{Base: V("p"), Off: And(V("i"), C(63)), Src: C(7), N: C(1)},
					Assign{Dst: "i", E: Add(V("i"), C(1))},
				}},
				Output{Base: V("p"), N: C(8)},
				FreeStmt{Ptr: V("p")},
			}},
		},
	})
}

var (
	shortInput = []byte{1}
	longInput  = make([]byte, 12)
)

// hookRun is one run's observable hook behaviour: the step number of
// every firing, the run's step count, and its error text.
type hookRun struct {
	Fires []uint64
	Steps uint64
	Err   string
}

// hookScript drives one executor through one run per input. Before
// run i, setup(i, ex, record) may install, replace or clear the hook,
// or leave the previous run's in place; record is a hook body that
// logs the current step into the run in progress.
type hookScript struct {
	maxSteps uint64
	inputs   [][]byte
	setup    func(i int, ex Exec, record func())
}

// play runs the script on one engine over a reused executor, resetting
// the substrate between runs, and returns every run's observations.
func (s hookScript) play(t *testing.T, p *Program, engine Engine) []hookRun {
	t.Helper()
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewNativeBackend(space)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExec(p, Config{Backend: backend, Engine: engine, MaxSteps: s.maxSteps})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]hookRun, len(s.inputs))
	var run *hookRun // the run in progress: a hook left installed logs there
	record := func() { run.Fires = append(run.Fires, execSteps(ex)) }
	for i, input := range s.inputs {
		if i > 0 {
			space.Reset()
			if err := backend.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		run = &out[i]
		s.setup(i, ex, record)
		res, err := ex.Run(input)
		if err != nil {
			run.Err = err.Error()
			continue
		}
		run.Steps = res.Steps
		// Past each boundary the Machine must return to its inlined
		// tick: a slow-path stop left behind the last step would send
		// every later statement through mtickSlow.
		if m, ok := ex.(*Machine); ok && m.tickSlowAt < m.steps {
			t.Errorf("run %d: slow path armed at step %d, behind the run's %d steps", i, m.tickSlowAt, m.steps)
		}
	}
	return out
}

// check plays the script on every engine and requires each to match
// the tree reference run for run.
func (s hookScript) check(t *testing.T, p *Program) []hookRun {
	t.Helper()
	ref := s.play(t, p, engineConfigs[0].Engine)
	for _, ec := range engineConfigs[1:] {
		if got := s.play(t, p, ec.Engine); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s diverges from %s:\n got:  %+v\n want: %+v", ec.Name, engineConfigs[0].Name, got, ref)
		}
	}
	return ref
}

// multiples lists every multiple of every in [1, n].
func multiples(every, n uint64) []uint64 {
	var out []uint64
	for s := every; s <= n; s += every {
		out = append(out, s)
	}
	return out
}

// TestHookBoundaries pins the compiled engine's hook scheduling to the
// tree's per-statement check: whatever the period, the step limit, or
// the hook's history on a reused executor, the hook fires at the same
// step numbers on both engines, and exactly at the multiples of its
// period.
func TestHookBoundaries(t *testing.T) {
	p := boundaryProgram()
	set := func(every uint64) func(int, Exec, func()) {
		return func(_ int, ex Exec, record func()) { SetQuantumHook(ex, every, record) }
	}
	unhooked := hookScript{inputs: [][]byte{shortInput, longInput}, setup: set(0)}.check(t, p)
	short, long := unhooked[0].Steps, unhooked[1].Steps
	if long <= 3*128+1 {
		t.Fatalf("long run takes %d steps; the limit cases need more", long)
	}
	for _, every := range hookPeriods {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			got := hookScript{inputs: [][]byte{longInput}, setup: set(every)}.check(t, p)[0]
			if want := multiples(every, long); !reflect.DeepEqual(got.Fires, want) {
				t.Fatalf("fired at %v, want %v", got.Fires, want)
			}
		})
		t.Run(fmt.Sprintf("limit/every=%d", every), func(t *testing.T) {
			// A limit just past a boundary, on one, and (where one
			// exists) below the first.
			limits := []uint64{3*every + 1, 3 * every}
			if every > 1 {
				limits = append(limits, every-1)
			}
			for _, limit := range limits {
				got := hookScript{maxSteps: limit, inputs: [][]byte{longInput}, setup: set(every)}.check(t, p)[0]
				if got.Err == "" {
					t.Fatalf("limit %d: the run did not hit it", limit)
				}
				if want := multiples(every, limit); !reflect.DeepEqual(got.Fires, want) {
					t.Fatalf("limit %d: fired at %v, want %v", limit, got.Fires, want)
				}
			}
		})
		t.Run(fmt.Sprintf("reused/every=%d", every), func(t *testing.T) {
			// On one executor: hooked, cleared, another period kept
			// across a run that hits the step limit, then the first
			// period again.
			other := hookPeriods[(slices.Index(hookPeriods, every)+1)%len(hookPeriods)]
			const limit = 3*128 + 1
			script := hookScript{
				maxSteps: limit,
				inputs:   [][]byte{shortInput, shortInput, longInput, shortInput, shortInput},
				setup: func(i int, ex Exec, record func()) {
					switch i {
					case 0, 4:
						SetQuantumHook(ex, every, record)
					case 1:
						SetQuantumHook(ex, 0, nil)
					case 2:
						SetQuantumHook(ex, other, record)
					}
				},
			}
			runs := script.check(t, p)
			want := [][]uint64{multiples(every, short), nil, multiples(other, limit), multiples(other, short), multiples(every, short)}
			for i, run := range runs {
				if !reflect.DeepEqual(run.Fires, want[i]) {
					t.Fatalf("run %d fired at %v, want %v", i, run.Fires, want[i])
				}
			}
			if runs[2].Err == "" {
				t.Fatal("run 2 did not hit the step limit")
			}
		})
	}
	t.Run("last-step", func(t *testing.T) {
		// The final statement is itself a boundary: it must still fire.
		got := hookScript{inputs: [][]byte{shortInput}, setup: set(short)}.check(t, p)[0]
		if !reflect.DeepEqual(got.Fires, []uint64{short}) {
			t.Fatalf("fired at %v, want [%d]", got.Fires, short)
		}
		// And with the limit exactly there, the run still completes.
		got = hookScript{maxSteps: short, inputs: [][]byte{shortInput}, setup: set(short)}.check(t, p)[0]
		if got.Err != "" || !reflect.DeepEqual(got.Fires, []uint64{short}) {
			t.Fatalf("limit at the last step: fired at %v, err %q", got.Fires, got.Err)
		}
	})
	t.Run("rehooked-mid-run", func(t *testing.T) {
		// A hook that replaces itself with another period, whose hook
		// then clears itself: the next boundary is the next multiple
		// of the new period.
		got := hookScript{inputs: [][]byte{longInput}, setup: func(_ int, ex Exec, record func()) {
			SetQuantumHook(ex, 10, func() {
				record()
				SetQuantumHook(ex, 7, func() { record(); SetQuantumHook(ex, 0, nil) })
			})
		}}.check(t, p)[0]
		if want := []uint64{10, 14}; !reflect.DeepEqual(got.Fires, want) {
			t.Fatalf("fired at %v, want %v", got.Fires, want)
		}
	})
}
