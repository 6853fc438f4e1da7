package experiments

import (
	"fmt"
	"math"
	"testing"
	"time"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
)

// TierUpRow is one benchmark's two-engine comparison.
type TierUpRow struct {
	Bench string
	// Per-run wall-clock nanoseconds on each engine, measured at steady
	// state (the compiled machine is warmed past its promotion threshold
	// before timing, so the row reports the closure tier, not compilation).
	TreeNsOp     float64
	CompiledNsOp float64
	// SpeedupVsTree is the compiled engine's ratio.
	SpeedupVsTree float64
	// Promotions is how many functions the machine lowered to closures.
	Promotions uint64
	// Cycles is the engine-independent virtual-cycle cost of one run;
	// the harness asserts both engines report exactly this value.
	Cycles uint64
}

// TierUpComparisonResult reports the tier-up compiled engine's
// wall-clock advantage over the tree-walker on encoded-call-heavy
// workloads: programs whose inner loops are
// dominated by instrumented call dispatch (every call pays a
// SiteUpdate) with the simulated allocator kept cold, so the spread
// between engines is pure interpretation overhead — the dimension the
// closure tier is built to compress.
type TierUpComparisonResult struct {
	Rows []TierUpRow
	// GeomeanVsTree is the geometric-mean compiled-engine speedup
	// across benchmarks.
	GeomeanVsTree float64
	// Threshold is the promotion threshold the machines ran with.
	Threshold uint64
	// SteadyStateAllocs is testing.AllocsPerRun for Machine.RunReuse on
	// the first benchmark once fully promoted. The committed baseline
	// pins 0: the closure tier allocates nothing per run.
	SteadyStateAllocs float64
}

// denseCallees builds n leaf functions that statically reach malloc
// (so the Incremental plan instruments every call site) behind a
// branch the loop counter never satisfies, keeping the allocator cold.
func denseCallees(n int) map[string]*prog.Func {
	never := prog.Bin{Op: prog.OpGt, A: prog.V("x"), B: prog.C(1 << 40)}
	funcs := make(map[string]*prog.Func, n)
	for i := 0; i < n; i++ {
		mul := uint64(2*i + 3)
		funcs[fmt.Sprintf("mix%d", i)] = &prog.Func{
			Params: []string{"a", "x"},
			Body: []prog.Stmt{
				prog.If{Cond: never, Then: []prog.Stmt{
					prog.Alloc{Dst: "p", Size: prog.C(16)},
					prog.FreeStmt{Ptr: prog.V("p")},
				}},
				prog.Return{E: prog.Bin{Op: prog.OpXor,
					A: prog.Bin{Op: prog.OpMul, A: prog.V("a"), B: prog.C(mul)},
					B: prog.V("x")}},
			},
		}
	}
	return funcs
}

// tierUpBenchmarks are the encoded-call-heavy programs: wide call fans
// (every iteration calls k instrumented sites), a deep chain (each
// call pushes another encoded frame), and a branchy callee (exercising
// the compare-and-branch superinstructions around the call sites).
func tierUpBenchmarks(quick bool) []struct {
	name string
	p    *prog.Program
} {
	iters := uint64(512)
	if quick {
		iters = 128
	}

	loop := func(body []prog.Stmt) []prog.Stmt {
		return append([]prog.Stmt{
			prog.Assign{Dst: "i", E: prog.C(0)},
			prog.Assign{Dst: "acc", E: prog.C(0)},
			prog.While{Cond: prog.Bin{Op: prog.OpLt, A: prog.V("i"), B: prog.C(iters)}, Body: append(body,
				prog.Assign{Dst: "i", E: prog.Bin{Op: prog.OpAdd, A: prog.V("i"), B: prog.C(1)}})},
		}, prog.Return{E: prog.V("acc")})
	}

	fan := func(name string, k int) struct {
		name string
		p    *prog.Program
	} {
		funcs := denseCallees(k)
		var body []prog.Stmt
		for i := 0; i < k; i++ {
			body = append(body, prog.Call{Dst: "acc", Callee: fmt.Sprintf("mix%d", i),
				Args: []prog.Expr{prog.V("acc"), prog.V("i")}})
		}
		funcs["main"] = &prog.Func{Body: loop(body)}
		return struct {
			name string
			p    *prog.Program
		}{name, prog.MustLink(&prog.Program{Name: name, Funcs: funcs})}
	}

	// chain: main fans to two hops and each hop fans to two leaves, so
	// every iteration crosses two encoded call edges per hop and every
	// function is a branching node (the Incremental plan instruments
	// only those) — a two-deep instrumented call tree.
	chainFuncs := denseCallees(2)
	for i := 0; i < 2; i++ {
		chainFuncs[fmt.Sprintf("hop%d", i)] = &prog.Func{Params: []string{"a", "x"}, Body: []prog.Stmt{
			prog.Call{Dst: "r", Callee: "mix0", Args: []prog.Expr{prog.V("a"), prog.V("x")}},
			prog.Call{Dst: "r", Callee: "mix1", Args: []prog.Expr{prog.V("r"), prog.V("x")}},
			prog.Return{E: prog.Bin{Op: prog.OpAdd, A: prog.V("r"), B: prog.C(uint64(i + 1))}},
		}}
	}
	chainFuncs["main"] = &prog.Func{Body: loop([]prog.Stmt{
		prog.Call{Dst: "acc", Callee: "hop0", Args: []prog.Expr{prog.V("acc"), prog.V("i")}},
		prog.Call{Dst: "acc", Callee: "hop1", Args: []prog.Expr{prog.V("acc"), prog.V("i")}},
	})}
	chain := prog.MustLink(&prog.Program{Name: "dense-chain", Funcs: chainFuncs})

	// branchy: the callee result steers a taken-both-ways branch in the
	// loop, keeping the fused compare-and-branch closures on the hot path.
	brFuncs := denseCallees(2)
	brFuncs["main"] = &prog.Func{Body: loop([]prog.Stmt{
		prog.Call{Dst: "v", Callee: "mix0", Args: []prog.Expr{prog.V("acc"), prog.V("i")}},
		prog.If{Cond: prog.Bin{Op: prog.OpAnd, A: prog.V("v"), B: prog.C(1)},
			Then: []prog.Stmt{prog.Assign{Dst: "acc", E: prog.Bin{Op: prog.OpAdd, A: prog.V("acc"), B: prog.V("v")}}},
			Else: []prog.Stmt{prog.Call{Dst: "acc", Callee: "mix1", Args: []prog.Expr{prog.V("v"), prog.V("i")}}}},
	})}
	branchy := prog.MustLink(&prog.Program{Name: "dense-branchy", Funcs: brFuncs})

	out := []struct {
		name string
		p    *prog.Program
	}{
		fan("dense-fan2", 2),
		fan("dense-fan4", 4),
		{"dense-chain", chain},
		{"dense-branchy", branchy},
	}
	if quick {
		out = out[:2]
	}
	return out
}

// tierUpCoder instruments p with the Incremental plan and PCC encoder
// — the configuration whose SiteUpdates the compiled tier bakes into
// integer arithmetic.
func tierUpCoder(p *prog.Program) (*encoding.Coder, error) {
	plan, err := encoding.NewPlan(encoding.SchemeIncremental, p.Graph(), p.Targets())
	if err != nil {
		return nil, err
	}
	if plan.NumSites() == 0 {
		return nil, fmt.Errorf("experiments: %s has no instrumented sites", p.Name)
	}
	return encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
}

func tierUpBackend() (*prog.NativeBackend, error) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, err
	}
	return prog.NewNativeBackend(space)
}

// TierUpComparison times both engines on the encoded-call suite at
// steady state and cross-checks their virtual-cycle accounts.
func TierUpComparison(cfg Config) (*TierUpComparisonResult, error) {
	threshold := cfg.TierUp
	if threshold == 0 {
		threshold = prog.DefaultTierUp
	}
	reps := 30
	if cfg.Quick {
		reps = 5
	}
	out := &TierUpComparisonResult{Threshold: threshold}
	logTree, n := 0.0, 0
	for _, b := range tierUpBenchmarks(cfg.Quick) {
		coder, err := tierUpCoder(b.p)
		if err != nil {
			return nil, err
		}

		// One executor per engine, warmed up (for the machine, until
		// every function is promoted), then timed steady-state reps.
		time1 := func(engine prog.Engine) (float64, uint64, uint64, error) {
			ex, err := tierUpExec(b.p, coder, engine, threshold)
			if err != nil {
				return 0, 0, 0, err
			}
			run := func(res *prog.Result) error {
				r, err := ex.Run(nil)
				if err == nil {
					*res = *r
				}
				return err
			}
			m, _ := ex.(*prog.Machine)
			if m != nil {
				run = func(res *prog.Result) error { return m.RunReuse(res, nil) }
			}
			var res prog.Result
			for w := 0; w == 0 || (m != nil && m.Promotions() < uint64(len(b.p.Funcs))); w++ {
				if w == maxWarmups {
					return 0, 0, 0, fmt.Errorf("experiments: %s not fully promoted after %d runs at threshold %d", b.name, w, threshold)
				}
				if err := run(&res); err != nil {
					return 0, 0, 0, err
				}
				if res.Crashed() {
					return 0, 0, 0, fmt.Errorf("experiments: %s crashed on %v: %v", b.name, engine, res.Fault)
				}
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				if err := run(&res); err != nil {
					return 0, 0, 0, err
				}
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(reps)
			var promos uint64
			if m != nil {
				promos = m.Promotions()
			}
			return ns, res.Cycles, promos, nil
		}

		treeNs, treeCyc, _, err := time1(prog.EngineTree)
		if err != nil {
			return nil, err
		}
		compNs, compCyc, promos, err := time1(prog.EngineCompiled)
		if err != nil {
			return nil, err
		}
		if treeCyc != compCyc {
			return nil, fmt.Errorf("experiments: %s: engines disagree on cycles (tree %d, compiled %d)",
				b.name, treeCyc, compCyc)
		}
		row := TierUpRow{Bench: b.name, TreeNsOp: treeNs, CompiledNsOp: compNs,
			Promotions: promos, Cycles: treeCyc}
		if compNs > 0 {
			row.SpeedupVsTree = treeNs / compNs
			logTree += math.Log(row.SpeedupVsTree)
			n++
		}
		out.Rows = append(out.Rows, row)
	}
	if n > 0 {
		out.GeomeanVsTree = math.Exp(logTree / float64(n))
	}
	allocs, err := tierUpSteadyStateAllocs(threshold)
	if err != nil {
		return nil, fmt.Errorf("experiments: compiled steady-state pin: %w", err)
	}
	out.SteadyStateAllocs = allocs
	return out, nil
}

// maxWarmups bounds the runs spent heating a machine until every
// function is promoted (a few hundred at the default threshold).
const maxWarmups = 100_000

// tierUpExec builds one executor for p on engine over a fresh native
// backend.
func tierUpExec(p *prog.Program, coder *encoding.Coder, engine prog.Engine, threshold uint64) (prog.Exec, error) {
	backend, err := tierUpBackend()
	if err != nil {
		return nil, err
	}
	return prog.NewExec(p, prog.Config{Backend: backend, Coder: coder, Engine: engine, TierUp: threshold})
}

// tierUpSteadyStateAllocs measures Go allocations per fully-promoted
// machine run on the first suite benchmark.
func tierUpSteadyStateAllocs(threshold uint64) (float64, error) {
	b := tierUpBenchmarks(true)[0]
	coder, err := tierUpCoder(b.p)
	if err != nil {
		return 0, err
	}
	ex, err := tierUpExec(b.p, coder, prog.EngineCompiled, threshold)
	if err != nil {
		return 0, err
	}
	m := ex.(*prog.Machine)
	var res prog.Result
	for w := 0; m.Promotions() < uint64(len(b.p.Funcs)); w++ {
		if w == maxWarmups {
			return 0, fmt.Errorf("pin workload not fully promoted after %d runs at threshold %d", w, threshold)
		}
		if err := m.RunReuse(&res, nil); err != nil {
			return 0, err
		}
	}
	var runErr error
	n := testing.AllocsPerRun(20, func() {
		if err := m.RunReuse(&res, nil); err != nil {
			runErr = err
		}
	})
	return n, runErr
}

// Render prints the comparison.
func (r *TierUpComparisonResult) Render() string {
	header := []string{"Benchmark", "tree ns/op", "compiled ns/op", "vs tree", "promoted", "cycles (equal)"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Bench,
			fmt.Sprintf("%.0f", row.TreeNsOp),
			fmt.Sprintf("%.0f", row.CompiledNsOp),
			fmt.Sprintf("%.2fx", row.SpeedupVsTree),
			fmt.Sprintf("%d", row.Promotions),
			fmt.Sprintf("%d", row.Cycles),
		})
	}
	return fmt.Sprintf("Tier-up compiled engine on encoded-call-heavy workloads (threshold %d; geomean %.2fx vs tree; virtual cycles verified equal; steady-state compiled allocs/run %.0f)\n",
		r.Threshold, r.GeomeanVsTree, r.SteadyStateAllocs) + table(header, rows)
}
