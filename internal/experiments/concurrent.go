package experiments

import (
	"fmt"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// ConcurrentServices measures the defended system under true
// multithreaded execution: N request-handler threads share one heap
// (native or defended), with per-thread thread-local V, matching how
// the paper's shared library serves a real multithreaded Nginx/MySQL.
// It reports <service>/<threads>/overhead_pct.
func ConcurrentServices(cfg Config) (*Result, error) {
	threadCounts := []int{2, 4, 8}
	requests := 300
	if cfg.Quick {
		threadCounts = []int{4}
		requests = 100
	}
	m := metrics{}
	var rows [][]string
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

			nat, err := runThreadsTotal(p, nil, nil, inputs)
			if err != nil {
				return nil, err
			}
			def, err := runThreadsTotal(p, coder, &defense.Config{}, inputs)
			if err != nil {
				return nil, err
			}
			row := fmt.Sprintf("%s/%d", svc.Name, n)
			rows = append(rows, []string{svc.Name, fmt.Sprint(n), m.cell(row+"/overhead_pct", "%.2f", overheadPct(nat, def))})
		}
	}
	text := "Concurrent services: defended vs native, shared heap, thread-local V\n" +
		table([]string{"Service", "Threads", "Throughput overhead (%)"}, rows)
	return &Result{Text: text, Metrics: m}, nil
}

// runThreadsTotal executes the program on n threads over one shared
// fresh backend (native when dcfg is nil) and returns the aggregate
// cycle cost (per-thread interpreter cycles plus the shared backend's
// total).
func runThreadsTotal(p *prog.Program, coder *encoding.Coder, dcfg *defense.Config, inputs [][]byte) (uint64, error) {
	backend, _, err := newBackend(dcfg)
	if err != nil {
		return 0, err
	}
	results, err := prog.RunThreads(p, prog.Config{Backend: backend, Coder: coder}, inputs, prog.DefaultQuantum)
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
