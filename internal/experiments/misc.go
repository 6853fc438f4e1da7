package experiments

import (
	"fmt"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/workload"
)

// TableIV reproduces Table IV: per-benchmark heap-allocation
// statistics, the paper's native counts, <bench>/<fn>_paper, next to
// the counts the simulation executes at 1/scale, <bench>/<fn>_run.
func TableIV(cfg Config) (*Result, error) {
	pc := cfg.programConfig()
	benches := workload.SpecBenchmarks()
	if cfg.Quick {
		benches = benches[:4]
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 10_000
	}
	m := metrics{"scale": float64(scale)}
	var rows [][]string
	for _, b := range benches {
		p, _, err := b.Program(pc)
		if err != nil {
			return nil, err
		}
		r, err := measure(p, nil, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			b.Name,
			m.count(b.Name+"/malloc_paper", b.Mallocs),
			m.count(b.Name+"/calloc_paper", b.Callocs),
			m.count(b.Name+"/realloc_paper", b.Reallocs),
			m.count(b.Name+"/malloc_run", r.AllocsByFn[heapsim.FnMalloc]),
			m.count(b.Name+"/calloc_run", r.AllocsByFn[heapsim.FnCalloc]),
			m.count(b.Name+"/realloc_run", r.AllocsByFn[heapsim.FnRealloc]),
		})
	}
	header := []string{"Benchmark", "malloc(paper)", "calloc(paper)", "realloc(paper)", "malloc(run)", "calloc(run)", "realloc(run)"}
	text := fmt.Sprintf("Table IV: heap allocation statistics (paper counts vs executed at 1/%d scale)\n", scale) +
		table(header, rows)
	return &Result{Text: text, Metrics: m}, nil
}

// Services reproduces the Section VIII-B2 service measurements (paper:
// Nginx 4.2% average throughput overhead over 20-200 concurrent
// requests; MySQL no observable overhead), <service>/<concurrency>/
// overhead_pct and the per-service <service>/average/overhead_pct.
// Throughput is requests per cycle, so throughput overhead equals
// cycle overhead on a fixed request count.
func Services(cfg Config) (*Result, error) {
	concurrencies := []int{20, 50, 100, 150, 200}
	requests := 2000
	if cfg.Quick {
		concurrencies = []int{20, 200}
		requests = 500
	}
	m := metrics{}
	var rows, avgRows [][]string
	for _, svc := range []*workload.Service{workload.Nginx(), workload.MySQL()} {
		var sum float64
		for _, conc := range concurrencies {
			p, err := svc.Program(requests, conc)
			if err != nil {
				return nil, err
			}
			coder, err := coderFor(p, encoding.SchemeIncremental)
			if err != nil {
				return nil, err
			}
			base, err := measure(p, nil, nil)
			if err != nil {
				return nil, err
			}
			r, err := measure(p, coder, &defense.Config{Mode: defense.ModeFull})
			if err != nil {
				return nil, err
			}
			oh := overheadPct(base.Cycles, r.Cycles)
			sum += oh
			row := fmt.Sprintf("%s/%d", svc.Name, conc)
			rows = append(rows, []string{svc.Name, fmt.Sprint(conc), m.cell(row+"/overhead_pct", "%.2f", oh)})
		}
		avg := sum / float64(len(concurrencies))
		avgRows = append(avgRows, []string{svc.Name, "AVERAGE", m.cell(svc.Name+"/average/overhead_pct", "%.2f", avg)})
	}
	text := "Service throughput overhead (Section VIII-B2; paper: nginx 4.2% avg, mysql negligible)\n" +
		table([]string{"Service", "Concurrency", "Throughput overhead (%)"}, append(rows, avgRows...))
	return &Result{Text: text, Metrics: m}, nil
}
