package experiments

import (
	"strings"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/workload"
)

// schemeColumn is a scheme's metric column: fcs_pct, tcs_pct, ...
func schemeColumn(s encoding.Scheme) string {
	return strings.ToLower(s.String()) + "_pct"
}

// schemeHeader is the table header over every encoding scheme.
func schemeHeader() []string {
	header := []string{"Benchmark"}
	for _, s := range encoding.AllSchemes() {
		header = append(header, s.String()+"(%)")
	}
	return header
}

// EncodingOverhead reproduces the Section VIII-B1 comparison: runtime
// overhead of each calling-context-encoding scheme on the SPEC-like
// workloads (paper: FCS 2.4%, TCS 0.6%, Slim 0.5%, Incremental 0.4%),
// plus an encoder-axis comparison (PCC vs PCCE vs DeltaPath
// arithmetic) under the Incremental plan, <encoder>/overhead_pct.
// total/<scheme>_updates counts the encoding updates each scheme
// executed, which explains its overhead mechanically.
func EncodingOverhead(cfg Config) (*Result, error) {
	benches := workload.SpecBenchmarks()
	if cfg.Quick {
		benches = benches[:4]
	}
	schemes, encoders := encoding.AllSchemes(), encoding.AllEncoders()
	m := metrics{}
	var rows [][]string
	sums := make([]float64, len(schemes))
	updates := make([]uint64, len(schemes))
	encoderSums := make([]float64, len(encoders))
	for _, b := range benches {
		p, _, err := b.Program(cfg.programConfig())
		if err != nil {
			return nil, err
		}
		base, err := measure(p, nil, nil)
		if err != nil {
			return nil, err
		}
		cells := []string{b.Name}
		var incremental *encoding.Coder
		var incrementalPct float64
		for i, scheme := range schemes {
			coder, err := coderFor(p, scheme)
			if err != nil {
				return nil, err
			}
			r, err := measure(p, coder, nil)
			if err != nil {
				return nil, err
			}
			pct := overheadPct(base.Cycles, r.Cycles)
			sums[i] += pct
			updates[i] += r.EncUpdates
			cells = append(cells, m.cell(b.Name+"/"+schemeColumn(scheme), "%.3f", pct))
			if scheme == encoding.SchemeIncremental {
				incremental, incrementalPct = coder, pct
			}
		}
		rows = append(rows, cells)

		// Encoder axis: same (Incremental) plan, different arithmetic.
		// The PCC entry is the Incremental-scheme run already measured
		// above; execution is deterministic, so its overhead is reused
		// rather than re-run.
		for i, kind := range encoders {
			if kind == encoding.EncoderPCC {
				encoderSums[i] += incrementalPct
				continue
			}
			coder, err := encoding.NewCoder(kind, p.Graph(), incremental.Plan())
			if err != nil {
				return nil, err
			}
			r, err := measure(p, coder, nil)
			if err != nil {
				return nil, err
			}
			encoderSums[i] += overheadPct(base.Cycles, r.Cycles)
		}
	}
	// Sums run in benchmark order: float addition is not associative,
	// so any other order could move the last bit of an average.
	avg := []string{"AVERAGE"}
	for i, s := range schemes {
		avg = append(avg, m.cell("average/"+schemeColumn(s), "%.3f", sums[i]/float64(len(benches))))
		m["total/"+strings.ToLower(s.String())+"_updates"] = float64(updates[i])
	}
	rows = append(rows, avg)
	var encRows [][]string
	for i, k := range encoders {
		encRows = append(encRows, []string{k.String(), m.cell(k.String()+"/overhead_pct", "%.3f", encoderSums[i]/float64(len(benches)))})
	}
	text := "Encoding runtime overhead vs uninstrumented (Section VIII-B1; paper: FCS 2.4%, TCS 0.6%, Slim 0.5%, Incremental 0.4%)\n" +
		table(schemeHeader(), rows) +
		"\nEncoder arithmetic under the Incremental plan (the optimizations apply to all of PCC/PCCE/DeltaPath)\n" +
		table([]string{"Encoder", "overhead (%)"}, encRows)
	return &Result{Text: text, Metrics: m}, nil
}

// TableIII reproduces Table III: the static binary size increase of
// each encoding scheme on each benchmark, <bench>/<scheme>_pct.
func TableIII(cfg Config) (*Result, error) {
	m := metrics{}
	var rows [][]string
	for _, b := range workload.SpecBenchmarks() {
		g, targets, err := b.Graph()
		if err != nil {
			return nil, err
		}
		cells := []string{b.Name}
		for _, scheme := range encoding.AllSchemes() {
			plan, err := encoding.NewPlan(scheme, g, targets)
			if err != nil {
				return nil, err
			}
			rep := encoding.Cost(g, plan, encoding.EncoderPCC, b.FuncSize())
			cells = append(cells, m.cell(b.Name+"/"+schemeColumn(scheme), "%.2f", rep.SizeIncreasePercent()))
		}
		rows = append(rows, cells)
	}
	return &Result{Text: "Table III: binary size increase per encoding scheme (%)\n" + table(schemeHeader(), rows), Metrics: m}, nil
}
