package experiments

import (
	"fmt"
	"runtime"
	"time"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/workload"
)

// FleetRow is one worker-count measurement of the parallel serving
// runtime.
type FleetRow struct {
	// Workers is the fleet's goroutine count.
	Workers int
	// NativeReqPerSec and DefendedReqPerSec are wall-clock request
	// throughput (one request = one full service-program execution).
	NativeReqPerSec   float64
	DefendedReqPerSec float64
	// OverheadPct is the defended throughput loss versus native at the
	// same worker count.
	OverheadPct float64
	// DefendedSpeedup is defended throughput relative to the 1-worker
	// defended baseline; EfficiencyPct divides it by the worker count.
	DefendedSpeedup float64
	EfficiencyPct   float64
}

// FleetResult is the scaling experiment over the parallel fleet
// runtime: M defended tenants sharing one sealed patch table across
// real goroutines. Unlike the other experiments, which report on the
// deterministic virtual-cycle axis, scaling across OS threads is a
// wall-clock property — so these numbers vary with the host and are
// only meaningful alongside the recorded GOMAXPROCS.
type FleetResult struct {
	// GOMAXPROCS is the parallelism available during the measurement.
	GOMAXPROCS int
	// Requests is the number of service-program executions per
	// measurement.
	Requests int
	Rows     []FleetRow
}

// Fleet measures native and defended request throughput at increasing
// worker counts over the nginx stand-in, each request recycling a
// pooled worker context.
func Fleet(cfg Config) (*FleetResult, error) {
	workerCounts := []int{1, 2, 4, 8}
	requests := 256
	if cfg.Quick {
		workerCounts = []int{1, 2, 4}
		requests = 64
	}

	// Each fleet request executes a short nginx connection burst:
	// allocation churn, compute, and teardown per handled request.
	p, err := workload.Nginx().Program(8, 2)
	if err != nil {
		return nil, err
	}
	coder, err := coderFor(p, encoding.SchemeIncremental)
	if err != nil {
		return nil, err
	}
	patches, err := medianCCIDPatches(cfg.exec(), p, coder, 4)
	if err != nil {
		return nil, err
	}

	inputs := make([][]byte, requests)
	out := &FleetResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Requests: requests}

	measure := func(f *fleet.Fleet) (float64, error) {
		// One warm pass populates the context pool; the timed pass
		// measures steady-state serving.
		if _, err := f.Serve(p, coder, inputs); err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := f.Serve(p, coder, inputs); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		return float64(requests) / elapsed.Seconds(), nil
	}

	var defendedBase float64
	for _, w := range workerCounts {
		native, err := measure(fleet.New(fleet.Config{Workers: w, Engine: cfg.Engine}))
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet native w=%d: %w", w, err)
		}
		defended, err := measure(fleet.New(fleet.Config{
			Workers:  w,
			Defended: true,
			Patches:  patches,
			Engine:   cfg.Engine,
		}))
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet defended w=%d: %w", w, err)
		}
		if w == workerCounts[0] {
			defendedBase = defended
		}
		row := FleetRow{
			Workers:           w,
			NativeReqPerSec:   native,
			DefendedReqPerSec: defended,
			OverheadPct:       100 * (native - defended) / native,
			DefendedSpeedup:   defended / defendedBase,
		}
		row.EfficiencyPct = 100 * row.DefendedSpeedup / float64(w)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the scaling table.
func (r *FleetResult) Render() string {
	header := []string{"Workers", "native req/s", "defended req/s", "overhead", "speedup", "efficiency"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%.0f", row.NativeReqPerSec),
			fmt.Sprintf("%.0f", row.DefendedReqPerSec),
			fmt.Sprintf("%+.1f%%", row.OverheadPct),
			fmt.Sprintf("%.2fx", row.DefendedSpeedup),
			fmt.Sprintf("%.0f%%", row.EfficiencyPct),
		})
	}
	return fmt.Sprintf(
		"Fleet scaling (parallel defended tenants over one sealed patch table; wall-clock, GOMAXPROCS=%d, %d requests)\n",
		r.GOMAXPROCS, r.Requests) + table(header, rows)
}
