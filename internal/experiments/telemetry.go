package experiments

import (
	"fmt"
	"sort"
	"time"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/telemetry"
	"heaptherapy/internal/workload"
)

// TelemetryResult is the telemetry-layer overhead experiment: the same
// defended fleet workload served with the collector absent and present.
// Virtual-cycle results are bit-identical by construction (telemetry
// never touches the cost model), so the interesting axes are wall-clock
// cost and what the enabled run actually captured.
type TelemetryResult struct {
	// Requests per measured pass and passes per configuration.
	Requests int
	Passes   int
	// DisabledReqPerSec and EnabledReqPerSec are best-of-passes
	// wall-clock throughput without and with a live collector.
	DisabledReqPerSec float64
	EnabledReqPerSec  float64
	// OverheadPct is the throughput loss from enabling telemetry.
	OverheadPct float64
	// Workers is the fleet's parallelism during the measurement.
	Workers int
	// Snapshot is the merged fleet snapshot from the enabled run.
	Snapshot *telemetry.Snapshot
	// PatchHitKeys counts distinct patches that took sealed-table hits.
	PatchHitKeys int
	// PatchHitTotal sums hits across those patches.
	PatchHitTotal uint64
}

// TelemetryOverhead serves the nginx stand-in through a defended fleet
// twice — collector off, then on — and reports throughput plus the
// enabled run's merged snapshot. Best-of-N passes on each side damps
// scheduler noise; the request stream is identical in both.
func TelemetryOverhead(cfg Config) (*TelemetryResult, error) {
	requests, passes, workers := 256, 5, 4
	if cfg.Quick {
		requests, passes = 64, 3
	}

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

	measure := func(f *fleet.Fleet) (float64, error) {
		// Warm pass to populate the context pool, then best-of-N timed.
		if _, err := f.Serve(p, coder, inputs); err != nil {
			return 0, err
		}
		best := 0.0
		for i := 0; i < passes; i++ {
			start := time.Now()
			if _, err := f.Serve(p, coder, inputs); err != nil {
				return 0, err
			}
			elapsed := time.Since(start)
			if elapsed <= 0 {
				elapsed = time.Nanosecond
			}
			if rps := float64(requests) / elapsed.Seconds(); rps > best {
				best = rps
			}
		}
		return best, nil
	}

	base := fleet.Config{Workers: workers, Defended: true, Patches: patches, Engine: cfg.Engine}
	disabled, err := measure(fleet.New(base))
	if err != nil {
		return nil, fmt.Errorf("experiments: telemetry disabled pass: %w", err)
	}

	enabledCfg := base
	enabledCfg.Telemetry = telemetry.New(telemetry.Config{})
	ef := fleet.New(enabledCfg)
	enabled, err := measure(ef)
	if err != nil {
		return nil, fmt.Errorf("experiments: telemetry enabled pass: %w", err)
	}
	stats := ef.Stats()

	out := &TelemetryResult{
		Requests:          requests,
		Passes:            passes,
		Workers:           workers,
		DisabledReqPerSec: disabled,
		EnabledReqPerSec:  enabled,
		OverheadPct:       100 * (disabled - enabled) / disabled,
		Snapshot:          stats.Telemetry,
		PatchHitKeys:      len(stats.PatchHits),
	}
	for _, n := range stats.PatchHits {
		out.PatchHitTotal += n
	}
	return out, nil
}

// Render prints the throughput pair and a counter summary of what the
// enabled run recorded.
func (r *TelemetryResult) Render() string {
	s := fmt.Sprintf(
		"Telemetry layer overhead (defended fleet, %d workers, %d requests, best of %d passes; wall-clock)\n"+
			"  collector disabled:  %.0f req/s\n"+
			"  collector enabled:   %.0f req/s\n"+
			"  overhead:            %+.1f%%\n",
		r.Workers, r.Requests, r.Passes,
		r.DisabledReqPerSec, r.EnabledReqPerSec, r.OverheadPct)
	if r.Snapshot != nil {
		s += fmt.Sprintf("  sealed-table hits:   %d across %d patch(es)\n",
			r.PatchHitTotal, r.PatchHitKeys)
		s += fmt.Sprintf("  enabled run recorded %d tenant(s), %d event(s):\n",
			r.Snapshot.Tenants, r.Snapshot.EventsTotal)
		names := make([]string, 0, len(r.Snapshot.Counters))
		for name := range r.Snapshot.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s += fmt.Sprintf("    %-22s %12d\n", name, r.Snapshot.Counters[name])
		}
	}
	return s
}
