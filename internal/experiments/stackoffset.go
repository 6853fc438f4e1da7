package experiments

import (
	"fmt"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/workload"
)

// StackOffsetBaseline reproduces the paper's related-work comparison:
// the profiling/stack-offset approach of [51] "fails if the calling
// context of interest does not appear in the profiling runs; its
// reported decoding failure rate is as high as 27%". It evaluates the
// technique on every benchmark graph at 80% profiling coverage
// (coverage_pct; generous: real profiling sees far less of rare
// contexts) and reports <bench>/contexts, <bench>/ambiguous_pct and
// <bench>/decode_failures_pct, the technique's weaknesses;
// encoding-based CCIDs have zero of both (PCCE exactly, PCC up to
// 64-bit hash collisions).
func StackOffsetBaseline(cfg Config) (*Result, error) {
	const coverage = 0.8
	benches := workload.SpecBenchmarks()
	if cfg.Quick {
		benches = benches[:4]
	}
	m := metrics{"coverage_pct": 100 * coverage}
	var rows [][]string
	var sum float64
	for _, b := range benches {
		g, targets, err := b.Graph()
		if err != nil {
			return nil, err
		}
		st := encoding.StackOffsetBaseline(g, targets, 20000, coverage, 1)
		failure := 100 * st.FailureRate()
		sum += failure
		rows = append(rows, []string{
			b.Name,
			m.count(b.Name+"/contexts", uint64(st.Contexts)),
			m.cell(b.Name+"/ambiguous_pct", "%.1f", 100*st.AmbiguityRate()),
			m.cell(b.Name+"/decode_failures_pct", "%.1f", failure),
		})
	}
	rows = append(rows, []string{"AVERAGE", "", "", m.cell("average/decode_failures_pct", "%.1f", sum/float64(len(benches)))})
	text := fmt.Sprintf("Stack-offset baseline at %.0f%% profiling coverage (paper cites up to 27%% decode failure; CC encoding: 0%%)\n",
		100*coverage) + table([]string{"Benchmark", "contexts", "ambiguous(%)", "decode failures(%)"}, rows)
	return &Result{Text: text, Metrics: m}, nil
}
