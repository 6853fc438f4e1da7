package experiments

import (
	"fmt"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// ConcurrentRow is one multithreaded service measurement.
type ConcurrentRow struct {
	Service     string
	Threads     int
	OverheadPct float64
}

// ConcurrentServicesResult measures the defended system under true
// multithreaded execution: N request-handler threads share one heap
// (native or defended), with per-thread thread-local V, matching how
// the paper's shared library serves a real multithreaded Nginx/MySQL.
type ConcurrentServicesResult struct {
	Rows []ConcurrentRow
}

// ConcurrentServices runs the service workloads across thread counts.
func ConcurrentServices(cfg Config) (*ConcurrentServicesResult, error) {
	threadCounts := []int{2, 4, 8}
	requests := 300
	if cfg.Quick {
		threadCounts = []int{4}
		requests = 100
	}
	out := &ConcurrentServicesResult{}
	for _, svc := range []*workload.Service{workload.Nginx(), workload.MySQL()} {
		// One thread handles `requests` requests; every thread runs the
		// same program with its own input.
		p, err := svc.Program(requests, 1)
		if err != nil {
			return nil, err
		}
		coder, err := coderFor(p, encoding.SchemeIncremental)
		if err != nil {
			return nil, err
		}
		for _, n := range threadCounts {
			inputs := make([][]byte, n)
			for i := range inputs {
				inputs[i] = []byte{byte(i)}
			}

			nat, err := runThreadsTotal(cfg.exec(), p, nil, nil, inputs)
			if err != nil {
				return nil, err
			}
			def, err := runThreadsTotal(cfg.exec(), p, coder, &defense.Config{}, inputs)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, ConcurrentRow{
				Service:     svc.Name,
				Threads:     n,
				OverheadPct: overheadPct(nat, def),
			})
		}
	}
	return out, nil
}

// runThreadsTotal executes the program on n threads over one shared
// fresh backend (native when dcfg is nil) and returns the aggregate
// cycle cost (per-thread interpreter cycles plus the shared backend's
// total).
func runThreadsTotal(ec prog.Config, p *prog.Program, coder *encoding.Coder, dcfg *defense.Config, inputs [][]byte) (uint64, error) {
	backend, _, err := newBackend(dcfg)
	if err != nil {
		return 0, err
	}
	results, err := prog.RunThreads(p, prog.Config{Backend: backend, Coder: coder, Engine: ec.Engine}, inputs, prog.DefaultQuantum)
	if err != nil {
		return 0, err
	}
	var total uint64
	for i, r := range results {
		if r.Crashed() {
			return 0, fmt.Errorf("experiments: thread %d crashed: %v", i, r.Fault)
		}
		total += r.InterpCycles
	}
	return total + backend.Cycles(), nil
}

// Render prints the measurements.
func (r *ConcurrentServicesResult) Render() string {
	header := []string{"Service", "Threads", "Throughput overhead (%)"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Service, fmt.Sprintf("%d", row.Threads), fmt.Sprintf("%.2f", row.OverheadPct)})
	}
	return "Concurrent services: defended vs native, shared heap, thread-local V\n" + table(header, rows)
}
