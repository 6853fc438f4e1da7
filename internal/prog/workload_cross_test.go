package prog_test

// The experiment-level engine differential: every program an
// htp-bench experiment runs is run here on the tree reference and on
// the compiled engine, over every backend the experiments build, and
// the two runs must agree exactly. The experiments themselves run the
// compiled engine only, so this suite is what ties their numbers to
// the reference.

import (
	"reflect"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/experiments"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/shadow"
	"heaptherapy/internal/workload"
)

const (
	// workloadScale divides Table IV's allocation counts. Every count
	// of 1,000 or more then sits at workload's floor of 100, which
	// keeps each site, loop and realloc path of the SPEC programs.
	workloadScale = 10_000_000
	// computeRounds caps the SPEC programs' per-iteration compute loop.
	// workload clamps a program's modeled compute to at least 200,000
	// statements whatever the scale (2.5 million for five of the twelve),
	// and at ~200 ns a statement the tree would spend over 20 s on
	// these loops across the backends. The loop is three assignments
	// and a comparison with no heap operation, call or encoding update,
	// so a shorter trip count runs the same statements.
	computeRounds = 64
	// serviceRequests and serviceConns size the Nginx and MySQL
	// programs: several requests, each a handler call with its own
	// allocations, under more than one live connection.
	serviceRequests = 4
	serviceConns    = 2
	// medianPatches is the widest Figure 8 deployment level.
	medianPatches = 5
)

// zeroLenMemops are a memset and a memcpy in each direction of zero
// bytes at address 0, which every backend must run as no-ops.
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

// workloadBackend is one backend an experiment runs a program over,
// with the coder that instruments the run (nil: uninstrumented).
type workloadBackend struct {
	name  string
	coder *encoding.Coder
	build func(t *testing.T) prog.HeapBackend
}

// pccCoder builds the paper's deployed PCC arithmetic over scheme.
func pccCoder(t *testing.T, p *prog.Program, scheme encoding.Scheme) *encoding.Coder {
	t.Helper()
	plan, err := encoding.NewPlan(scheme, p.Graph(), p.Targets())
	if err != nil {
		t.Fatal(err)
	}
	coder, err := encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return coder
}

// workloadBackends lists the experiments' backends for p: native
// uninstrumented (the baseline), native under each scheme's PCC coder
// (the encoding experiment), defended interposition and defended full
// with median-frequency overflow patches (Figure 8), and the shadow
// analysis.
func workloadBackends(t *testing.T, p *prog.Program) []workloadBackend {
	t.Helper()
	backends := []workloadBackend{{name: "native", build: newNativeBackend}}
	for _, scheme := range encoding.AllSchemes() {
		backends = append(backends, workloadBackend{name: "native-" + scheme.String(), coder: pccCoder(t, p, scheme), build: newNativeBackend})
	}
	coder := pccCoder(t, p, encoding.SchemeIncremental)
	patches, err := experiments.Figure8PatchSelection(p, coder, medianPatches)
	if err != nil {
		t.Fatal(err)
	}
	return append(backends,
		workloadBackend{name: "interpose", coder: coder, build: func(t *testing.T) prog.HeapBackend {
			return newDefense(t, defense.Config{Mode: defense.ModeInterpose})
		}},
		workloadBackend{name: "full-patched", coder: coder, build: func(t *testing.T) prog.HeapBackend {
			return newDefense(t, defense.Config{Mode: defense.ModeFull, Patches: patches})
		}},
		workloadBackend{name: "shadow", coder: coder, build: func(t *testing.T) prog.HeapBackend { return newShadow(t) }},
	)
}

// backendState is what a run leaves in its backend beyond the Result:
// the backend's cycles plus the defense statistics or the shadow
// warning stream.
func backendState(b prog.HeapBackend) []any {
	state := []any{b.Cycles()}
	switch b := b.(type) {
	case *defense.Backend:
		state = append(state, b.Defender().Stats())
	case *shadow.Backend:
		state = append(state, b.Warnings(), b.Leaks())
	}
	return state
}

type workloadProgram struct {
	name    string
	p       *prog.Program
	threads bool // also run through RunThreads, as the concurrent experiment does
}

// workloadPrograms builds every program the experiments run: each
// SPEC benchmark's Table IV program and its Figure 9 live-heap
// program, and the Nginx and MySQL programs, plus the zero-length
// memops.
func workloadPrograms(t *testing.T) []workloadProgram {
	t.Helper()
	cfg := workload.ProgramConfig{Scale: workloadScale}
	var out []workloadProgram
	for _, b := range workload.SpecBenchmarks() {
		p, plan, err := b.Program(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p = capCompute(t, p, plan.ComputePerIteration)
		live, err := b.LiveHeapProgram(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, workloadProgram{name: b.Name, p: p}, workloadProgram{name: b.Name + "-live", p: live})
	}
	for _, svc := range []*workload.Service{workload.Nginx(), workload.MySQL()} {
		p, err := svc.Program(serviceRequests, serviceConns)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, workloadProgram{name: svc.Name, p: p, threads: true})
	}
	zero, err := progtext.Parse(zeroLenMemops)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, workloadProgram{name: "zerolen", p: zero})
}

// capCompute relinks a SPEC program with its compute loop, the one
// bounded by rounds, cut to at most computeRounds rounds; every other
// statement is kept.
func capCompute(t *testing.T, p *prog.Program, rounds uint64) *prog.Program {
	t.Helper()
	if rounds <= computeRounds {
		return p
	}
	bound := prog.Lt(prog.V("j"), prog.C(rounds))
	capped := 0
	var rewrite func(body []prog.Stmt) []prog.Stmt
	rewrite = func(body []prog.Stmt) []prog.Stmt {
		out := make([]prog.Stmt, len(body))
		for i, st := range body {
			if w, ok := st.(prog.While); ok {
				if reflect.DeepEqual(w.Cond, bound) {
					w.Cond = prog.Lt(prog.V("j"), prog.C(computeRounds))
					capped++
				}
				w.Body = rewrite(w.Body)
				st = w
			}
			out[i] = st
		}
		return out
	}
	funcs := make(map[string]*prog.Func, len(p.Funcs))
	for name, f := range p.Funcs {
		g := *f
		if name == p.Entry {
			g.Body = rewrite(f.Body)
		}
		funcs[name] = &g
	}
	if capped != 1 {
		t.Fatalf("%s: found %d compute loops bounded by %d, want 1", p.Name, capped, rounds)
	}
	q := &prog.Program{Name: p.Name, Entry: p.Entry, Funcs: funcs}
	if err := prog.Link(q); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestWorkloadDifferential requires the tree reference and the
// compiled engine to produce identical Results, errors and backend
// state for every program and backend of the experiments, single
// threaded and, for the services, through RunThreads.
func TestWorkloadDifferential(t *testing.T) {
	for _, wp := range workloadPrograms(t) {
		t.Run(wp.name, func(t *testing.T) {
			for _, bk := range workloadBackends(t, wp.p) {
				label := wp.name + "/" + bk.name
				tb, vb := bk.build(t), bk.build(t)
				tr, terr := newExec(t, wp.p, bk.coder, tb, prog.EngineTree).Run(nil)
				vr, verr := newExec(t, wp.p, bk.coder, vb, prog.EngineCompiled).Run(nil)
				sameRun(t, label, tr, vr, terr, verr)
				if terr == nil && tr.Crashed() {
					t.Errorf("%s: crashed: %v", label, tr.Fault)
				}
				if ts, vs := backendState(tb), backendState(vb); !reflect.DeepEqual(ts, vs) {
					t.Errorf("%s: backend state diverges\ntree:     %v\ncompiled: %v", label, ts, vs)
				}
				if !wp.threads {
					continue
				}
				inputs := [][]byte{{0}, {1}, {2}}
				tb, vb = bk.build(t), bk.build(t)
				trs, terr := prog.RunThreads(wp.p, prog.Config{Backend: tb, Coder: bk.coder, Engine: prog.EngineTree}, inputs, prog.DefaultQuantum)
				vrs, verr := prog.RunThreads(wp.p, prog.Config{Backend: vb, Coder: bk.coder, Engine: prog.EngineCompiled}, inputs, prog.DefaultQuantum)
				if (terr != nil) != (verr != nil) || (terr != nil && terr.Error() != verr.Error()) {
					t.Fatalf("%s/threads: tree err = %v, compiled err = %v", label, terr, verr)
				}
				for i := range trs {
					sameRun(t, label+"/threads", trs[i], vrs[i], nil, nil)
				}
				if ts, vs := backendState(tb), backendState(vb); !reflect.DeepEqual(ts, vs) {
					t.Errorf("%s/threads: backend state diverges\ntree:     %v\ncompiled: %v", label, ts, vs)
				}
			}
		})
	}
}
