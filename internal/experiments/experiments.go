// Package experiments regenerates every table and figure of the
// paper's evaluation (Section VIII). Each experiment returns a typed
// result with a Render method that prints rows in the paper's shape;
// a result with headline numbers also has Detail, which htp-bench's
// -json report records. cmd/htp-bench drives every experiment from one
// table. The HTTP front-end's and the fuzzing campaign's throughput are
// not experiments here: benchmark/ measures them with gated bounds.
//
// Overheads are reported on the deterministic virtual-cycle axis (see
// the cost model in internal/prog): wall-clock timing of a Go
// interpreter is dominated by interpretation overhead itself, which
// would drown the few-percent native-execution effects the paper
// measures. The cycle model assigns calibrated relative costs to
// compute, calls, allocator work, encoding updates, and defense
// mechanisms, so overhead ratios are meaningful and reproducible.
//
// Every measured run builds its own executor, backend and address
// space, over a program and coder its experiment built: runs share no
// mutable state, and a fresh space costs only the pages a run touches.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"heaptherapy/internal/ccprof"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// Config tunes experiment cost; the defaults match the committed
// EXPERIMENTS.md numbers.
type Config struct {
	// Scale divides the paper's Table IV allocation counts
	// (0 = workload default, 10000).
	Scale uint64
	// Quick trims parameter sweeps for fast runs.
	Quick bool
}

func (c Config) programConfig() workload.ProgramConfig {
	return workload.ProgramConfig{Scale: c.Scale}
}

// coderFor builds a coder for p under the given scheme with PCC
// arithmetic (the paper's deployed encoder).
func coderFor(p *prog.Program, scheme encoding.Scheme) (*encoding.Coder, error) {
	plan, err := encoding.NewPlan(scheme, p.Graph(), p.Targets())
	if err != nil {
		return nil, err
	}
	return encoding.NewCoder(encoding.EncoderPCC, p.Graph(), plan)
}

// newBackend builds a heap backend over a fresh address space:
// native when dcfg is nil, else defended under *dcfg. It also returns
// the backend's allocator.
func newBackend(dcfg *defense.Config) (prog.HeapBackend, *heapsim.Heap, error) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: creating space: %w", err)
	}
	if dcfg == nil {
		nb, err := prog.NewNativeBackend(space)
		if err != nil {
			return nil, nil, err
		}
		return nb, nb.Heap(), nil
	}
	db, err := defense.NewBackend(space, *dcfg)
	if err != nil {
		return nil, nil, err
	}
	return db, db.Defender().Heap(), nil
}

// execute builds an executor for p over backend, instrumented by coder
// (nil: uninstrumented), and runs it once; a crash is an error.
func execute(p *prog.Program, coder *encoding.Coder, backend prog.HeapBackend) (*prog.Result, error) {
	it, err := prog.NewExec(p, prog.Config{Backend: backend, Coder: coder})
	if err != nil {
		return nil, err
	}
	res, err := it.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: running %s: %w", p.Name, err)
	}
	if res.Crashed() {
		return nil, fmt.Errorf("experiments: %s crashed: %v", p.Name, res.Fault)
	}
	return res, nil
}

// measure runs p once over a fresh backend: native when dcfg is nil,
// else defended under *dcfg.
func measure(p *prog.Program, coder *encoding.Coder, dcfg *defense.Config) (*prog.Result, error) {
	backend, _, err := newBackend(dcfg)
	if err != nil {
		return nil, err
	}
	return execute(p, coder, backend)
}

// overheadPct converts a baseline/measured cycle pair to percent.
func overheadPct(base, got uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(got) - float64(base)) / float64(base)
}

// profileCCIDs runs one profiling execution of p over a fresh native
// backend and returns its allocation contexts ranked by (count, CCID,
// FUN) ascending — the ordering the paper's median-frequency
// patch-selection protocol indexes into, fully determined so that ties
// never fall to map order. Profiling is deterministic, so one ranking
// serves every deployment level of an experiment.
func profileCCIDs(p *prog.Program, coder *encoding.Coder) ([]ccprof.Sample, error) {
	backend, _, err := newBackend(nil)
	if err != nil {
		return nil, err
	}
	prof := ccprof.New(backend)
	if _, err := execute(p, coder, prof); err != nil {
		return nil, err
	}
	ranked := prof.Samples()
	slices.SortFunc(ranked, func(a, b ccprof.Sample) int {
		return cmp.Or(cmp.Compare(a.Count, b.Count), cmp.Compare(a.Key.CCID, b.Key.CCID), cmp.Compare(a.Key.Fn, b.Key.Fn))
	})
	return ranked, nil
}

// selectMedianPatches picks n overflow patches centered on the
// median-frequency contexts of a ranked profile, per the paper's
// protocol ("we pick the CCIDs with median frequencies as the
// hypothesized vulnerable ones" — overflow being the most expensive
// type to treat).
func selectMedianPatches(ranked []ccprof.Sample, n int) *patch.Set {
	set := patch.NewSet()
	if len(ranked) == 0 {
		return set
	}
	mid := len(ranked) / 2
	lo := mid - n/2
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < len(ranked) && set.Len() < n; i++ {
		set.Add(patch.Patch{
			Fn:    ranked[i].Key.Fn,
			CCID:  ranked[i].Key.CCID,
			Types: patch.TypeOverflow,
		})
	}
	return set
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}
