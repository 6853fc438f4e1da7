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
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
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
	// Engine selects the execution substrate (tree interpreter or
	// compiled machine). Both produce bit-identical measurements —
	// locked in by TestExperimentsEngineIndependent — so the choice
	// only affects wall-clock time of the experiment harness itself.
	Engine prog.Engine
}

// exec is the executor configuration measured runs are built from: the
// engine.
func (c Config) exec() prog.Config {
	return prog.Config{Engine: c.Engine}
}

func (c Config) programConfig() workload.ProgramConfig {
	return workload.ProgramConfig{Scale: c.Scale}
}

// measured is one measured execution.
type measured struct {
	res   *prog.Result
	heap  *heapsim.Heap
	stats defense.Stats
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

// overheadPct converts a baseline/measured cycle pair to percent.
func overheadPct(base, got uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (float64(got) - float64(base)) / float64(base)
}

// ccidRecorder wraps a backend and counts allocation CCIDs, used to
// pick the paper's "median frequency" hypothesized-vulnerable contexts
// (Section VIII-B2's patch-selection protocol).
type ccidRecorder struct {
	prog.HeapBackend
	counts map[patch.Key]uint64
}

func (r *ccidRecorder) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	r.counts[patch.Key{Fn: fn, CCID: ccid}]++
	return r.HeapBackend.Alloc(fn, ccid, n, size, align)
}

func (r *ccidRecorder) Realloc(ccid, ptr, size uint64) (uint64, error) {
	r.counts[patch.Key{Fn: heapsim.FnRealloc, CCID: ccid}]++
	return r.HeapBackend.Realloc(ccid, ptr, size)
}

// rankedCCID is one allocation context with its observed frequency.
type rankedCCID struct {
	key   patch.Key
	count uint64
}

// profileCCIDs runs one profiling execution of p over backend and
// returns its allocation contexts ranked by (count, CCID) ascending —
// the ordering the paper's median-frequency patch-selection protocol
// indexes into. Profiling is deterministic, so one ranking serves
// every deployment level of an experiment.
func profileCCIDs(ec prog.Config, p *prog.Program, coder *encoding.Coder, backend prog.HeapBackend) ([]rankedCCID, error) {
	rec := &ccidRecorder{HeapBackend: backend, counts: make(map[patch.Key]uint64)}
	it, err := execFor(ec, p, coder, rec)
	if err != nil {
		return nil, err
	}
	if _, err := it.Run(nil); err != nil {
		return nil, fmt.Errorf("experiments: profiling %s: %w", p.Name, err)
	}
	ranked := make([]rankedCCID, 0, len(rec.counts))
	for k, c := range rec.counts {
		ranked = append(ranked, rankedCCID{key: k, count: c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count < ranked[j].count
		}
		return ranked[i].key.CCID < ranked[j].key.CCID
	})
	return ranked, nil
}

// selectMedianPatches picks n overflow patches centered on the
// median-frequency contexts of a ranked profile, per the paper's
// protocol ("we pick the CCIDs with median frequencies as the
// hypothesized vulnerable ones" — overflow being the most expensive
// type to treat).
func selectMedianPatches(ranked []rankedCCID, n int) *patch.Set {
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
			Fn:    ranked[i].key.Fn,
			CCID:  ranked[i].key.CCID,
			Types: patch.TypeOverflow,
		})
	}
	return set
}

// medianCCIDPatches profiles p on a fresh native substrate and selects
// n median-frequency patches (profileCCIDs + selectMedianPatches).
func medianCCIDPatches(ec prog.Config, p *prog.Program, coder *encoding.Coder, n int) (*patch.Set, error) {
	ranked, err := newWorkbench(ec, p).profile(coder)
	if err != nil {
		return nil, err
	}
	return selectMedianPatches(ranked, n), nil
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
