package experiments

import (
	"fmt"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/workload"
)

// TableIVResult reproduces Table IV: per-benchmark heap-allocation
// statistics, both the paper's native counts (embedded from the paper)
// and the scaled counts the simulation actually executes.
type TableIVResult struct {
	// Scale is the divisor applied to the paper's counts.
	Scale uint64
	// Executed maps benchmark -> [malloc, calloc, realloc] executed.
	Executed map[string][3]uint64
}

// TableIV runs every workload and reports executed allocation counts.
func TableIV(cfg Config) (*TableIVResult, error) {
	pc := cfg.programConfig()
	benches := workload.SpecBenchmarks()
	if cfg.Quick {
		benches = benches[:4]
	}
	out := &TableIVResult{Scale: 10_000, Executed: make(map[string][3]uint64, len(benches))}
	if cfg.Scale != 0 {
		out.Scale = cfg.Scale
	}
	for _, b := range benches {
		p, _, err := b.Program(pc)
		if err != nil {
			return nil, err
		}
		m, err := measure(p, nil, nil)
		if err != nil {
			return nil, err
		}
		out.Executed[b.Name] = [3]uint64{
			m.AllocsByFn[heapsim.FnMalloc],
			m.AllocsByFn[heapsim.FnCalloc],
			m.AllocsByFn[heapsim.FnRealloc],
		}
	}
	return out, nil
}

// Render prints Table IV: the paper's counts next to the executed
// scaled counts.
func (r *TableIVResult) Render() string {
	header := []string{"Benchmark", "malloc(paper)", "calloc(paper)", "realloc(paper)", "malloc(run)", "calloc(run)", "realloc(run)"}
	var rows [][]string
	for _, b := range workload.SpecBenchmarks() {
		run, ok := r.Executed[b.Name]
		if !ok {
			continue
		}
		rows = append(rows, []string{
			b.Name,
			fmt.Sprintf("%d", b.Mallocs), fmt.Sprintf("%d", b.Callocs), fmt.Sprintf("%d", b.Reallocs),
			fmt.Sprintf("%d", run[0]), fmt.Sprintf("%d", run[1]), fmt.Sprintf("%d", run[2]),
		})
	}
	return fmt.Sprintf("Table IV: heap allocation statistics (paper counts vs executed at 1/%d scale)\n", r.Scale) +
		table(header, rows)
}

// ServiceRow is one service-throughput measurement.
type ServiceRow struct {
	// Service and Concurrency identify the configuration.
	Service     string
	Concurrency int
	// OverheadPct is the throughput overhead vs native execution.
	OverheadPct float64
}

// ServicesResult reproduces the Section VIII-B2 service measurements
// (paper: Nginx 4.2% average throughput overhead over 20-200
// concurrent requests; MySQL no observable overhead).
type ServicesResult struct {
	Rows []ServiceRow
	// Average maps service -> mean overhead.
	Average map[string]float64
}

// Services measures defended service throughput. Throughput is
// requests per cycle, so throughput overhead equals cycle overhead on
// a fixed request count.
func Services(cfg Config) (*ServicesResult, error) {
	concurrencies := []int{20, 50, 100, 150, 200}
	requests := 2000
	if cfg.Quick {
		concurrencies = []int{20, 200}
		requests = 500
	}
	out := &ServicesResult{Average: make(map[string]float64, 2)}
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
			m, err := measure(p, coder, &defense.Config{Mode: defense.ModeFull})
			if err != nil {
				return nil, err
			}
			oh := overheadPct(base.Cycles, m.Cycles)
			out.Rows = append(out.Rows, ServiceRow{Service: svc.Name, Concurrency: conc, OverheadPct: oh})
			sum += oh
		}
		out.Average[svc.Name] = sum / float64(len(concurrencies))
	}
	return out, nil
}

// Render prints the service measurements.
func (r *ServicesResult) Render() string {
	header := []string{"Service", "Concurrency", "Throughput overhead (%)"}
	var rows [][]string
	var services []string // in measurement order, so the render is deterministic
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Service, fmt.Sprintf("%d", row.Concurrency), fmt.Sprintf("%.2f", row.OverheadPct)})
		if n := len(services); n == 0 || services[n-1] != row.Service {
			services = append(services, row.Service)
		}
	}
	for _, svc := range services {
		rows = append(rows, []string{svc, "AVERAGE", fmt.Sprintf("%.2f", r.Average[svc])})
	}
	return "Service throughput overhead (Section VIII-B2; paper: nginx 4.2% avg, mysql negligible)\n" +
		table(header, rows)
}

// AblationResult measures the quota ablation called out in DESIGN.md:
// deferred-free queue quota vs how long freed blocks stay unreusable.
type AblationResult struct {
	// Rows: quota bytes -> evictions and max queue occupancy observed
	// on a UAF-heavy churn.
	Rows []AblationRow
}

// AblationRow is one quota setting's outcome.
type AblationRow struct {
	Quota      uint64
	Evictions  uint64
	QueueBytes uint64
}

// Render prints the ablation.
func (r *AblationResult) Render() string {
	header := []string{"Queue quota (B)", "Evictions", "Final queue bytes"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Quota),
			fmt.Sprintf("%d", row.Evictions),
			fmt.Sprintf("%d", row.QueueBytes),
		})
	}
	return "Ablation: deferred-free queue quota (Section IX discussion)\n" + table(header, rows)
}
