package experiments

import (
	"fmt"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/workload"
)

// EncodingOverheadResult reproduces the Section VIII-B1 comparison:
// runtime overhead of each calling-context-encoding scheme on the
// SPEC-like workloads (paper: FCS 2.4%, TCS 0.6%, Slim 0.5%,
// Incremental 0.4%).
type EncodingOverheadResult struct {
	// PerBench maps benchmark -> scheme -> overhead percent over the
	// uninstrumented run.
	PerBench map[string]map[encoding.Scheme]float64
	// Average is the cross-benchmark mean per scheme.
	Average map[encoding.Scheme]float64
	// Updates is the per-scheme total of executed encoding updates,
	// explaining the overhead mechanically.
	Updates map[encoding.Scheme]uint64
	// PerEncoder is the encoder-axis comparison: mean overhead of each
	// update arithmetic under the Incremental plan.
	PerEncoder map[encoding.EncoderKind]float64
}

// EncodingOverhead measures each scheme's runtime cost, plus an
// encoder-axis comparison (PCC vs PCCE vs DeltaPath arithmetic) under
// the Incremental plan.
func EncodingOverhead(cfg Config) (*EncodingOverheadResult, error) {
	benches := workload.SpecBenchmarks()
	if cfg.Quick {
		benches = benches[:4]
	}
	out := &EncodingOverheadResult{
		PerBench:   make(map[string]map[encoding.Scheme]float64, len(benches)),
		Average:    make(map[encoding.Scheme]float64, 4),
		Updates:    make(map[encoding.Scheme]uint64, 4),
		PerEncoder: make(map[encoding.EncoderKind]float64, 3),
	}
	encoderSums := make(map[encoding.EncoderKind]float64, 3)
	for _, b := range benches {
		p, _, err := b.Program(cfg.programConfig())
		if err != nil {
			return nil, err
		}
		base, err := measure(p, nil, nil)
		if err != nil {
			return nil, err
		}
		row := make(map[encoding.Scheme]float64, 4)
		var incremental *encoding.Coder
		for _, scheme := range encoding.AllSchemes() {
			coder, err := coderFor(p, scheme)
			if err != nil {
				return nil, err
			}
			if scheme == encoding.SchemeIncremental {
				incremental = coder
			}
			m, err := measure(p, coder, nil)
			if err != nil {
				return nil, err
			}
			row[scheme] = overheadPct(base.Cycles, m.Cycles)
			out.Updates[scheme] += m.EncUpdates
		}
		out.PerBench[b.Name] = row

		// Encoder axis: same (Incremental) plan, different arithmetic.
		// The PCC entry is the Incremental-scheme run already measured
		// above; execution is deterministic, so its overhead is reused
		// rather than re-run.
		for _, kind := range encoding.AllEncoders() {
			if kind == encoding.EncoderPCC {
				encoderSums[kind] += row[encoding.SchemeIncremental]
				continue
			}
			coder, err := encoding.NewCoder(kind, p.Graph(), incremental.Plan())
			if err != nil {
				return nil, err
			}
			m, err := measure(p, coder, nil)
			if err != nil {
				return nil, err
			}
			encoderSums[kind] += overheadPct(base.Cycles, m.Cycles)
		}
	}
	for _, scheme := range encoding.AllSchemes() {
		var sum float64
		for _, row := range out.PerBench {
			sum += row[scheme]
		}
		out.Average[scheme] = sum / float64(len(out.PerBench))
	}
	for _, kind := range encoding.AllEncoders() {
		out.PerEncoder[kind] = encoderSums[kind] / float64(len(out.PerBench))
	}
	return out, nil
}

// Render prints the comparison in the paper's shape.
func (r *EncodingOverheadResult) Render() string {
	header := []string{"Benchmark"}
	for _, s := range encoding.AllSchemes() {
		header = append(header, s.String()+"(%)")
	}
	var rows [][]string
	for _, b := range workload.SpecBenchmarks() {
		row, ok := r.PerBench[b.Name]
		if !ok {
			continue
		}
		cells := []string{b.Name}
		for _, s := range encoding.AllSchemes() {
			cells = append(cells, fmt.Sprintf("%.3f", row[s]))
		}
		rows = append(rows, cells)
	}
	avg := []string{"AVERAGE"}
	for _, s := range encoding.AllSchemes() {
		avg = append(avg, fmt.Sprintf("%.3f", r.Average[s]))
	}
	rows = append(rows, avg)
	out := "Encoding runtime overhead vs uninstrumented (Section VIII-B1; paper: FCS 2.4%, TCS 0.6%, Slim 0.5%, Incremental 0.4%)\n" +
		table(header, rows)
	if len(r.PerEncoder) > 0 {
		var encRows [][]string
		for _, k := range encoding.AllEncoders() {
			encRows = append(encRows, []string{k.String(), fmt.Sprintf("%.3f", r.PerEncoder[k])})
		}
		out += "\nEncoder arithmetic under the Incremental plan (the optimizations apply to all of PCC/PCCE/DeltaPath)\n" +
			table([]string{"Encoder", "overhead (%)"}, encRows)
	}
	return out
}

// TableIIIResult reproduces Table III: binary size increase per
// encoding scheme per benchmark.
type TableIIIResult struct {
	// Rows maps benchmark -> scheme -> size increase percent.
	Rows map[string]map[encoding.Scheme]float64
	// Sites maps benchmark -> scheme -> instrumented site count.
	Sites map[string]map[encoding.Scheme]int
}

// TableIII computes the static size-increase comparison.
func TableIII(cfg Config) (*TableIIIResult, error) {
	out := &TableIIIResult{
		Rows:  make(map[string]map[encoding.Scheme]float64),
		Sites: make(map[string]map[encoding.Scheme]int),
	}
	for _, b := range workload.SpecBenchmarks() {
		g, targets, err := b.Graph()
		if err != nil {
			return nil, err
		}
		row := make(map[encoding.Scheme]float64, 4)
		sites := make(map[encoding.Scheme]int, 4)
		for _, scheme := range encoding.AllSchemes() {
			plan, err := encoding.NewPlan(scheme, g, targets)
			if err != nil {
				return nil, err
			}
			rep := encoding.Cost(g, plan, encoding.EncoderPCC, b.FuncSize())
			row[scheme] = rep.SizeIncreasePercent()
			sites[scheme] = rep.InstrumentedSites
		}
		out.Rows[b.Name] = row
		out.Sites[b.Name] = sites
	}
	return out, nil
}

// Render prints Table III.
func (r *TableIIIResult) Render() string {
	header := []string{"Benchmark"}
	for _, s := range encoding.AllSchemes() {
		header = append(header, s.String()+"(%)")
	}
	var rows [][]string
	for _, b := range workload.SpecBenchmarks() {
		row, ok := r.Rows[b.Name]
		if !ok {
			continue
		}
		cells := []string{b.Name}
		for _, s := range encoding.AllSchemes() {
			cells = append(cells, fmt.Sprintf("%.2f", row[s]))
		}
		rows = append(rows, cells)
	}
	return "Table III: binary size increase per encoding scheme (%)\n" + table(header, rows)
}
