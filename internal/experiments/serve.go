package experiments

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/serve"
	"heaptherapy/internal/workload"
)

// ServeRow is one worker-count measurement of the HTTP front-end.
type ServeRow struct {
	// Workers is the front-end's tenant-context count.
	Workers int
	// ReqPerSec is end-to-end HTTP request throughput (admission,
	// dispatch, defended execution, response).
	ReqPerSec float64
	// Swaps is how many live table swaps landed during this row's
	// measurement window.
	Swaps int
}

// ServeThroughputResult measures the live-traffic front-end: benign
// HTTP throughput at increasing worker counts while a swapper performs
// live patch rollouts throughout, plus the latency distribution of the
// SwapTable operation itself (seal + atomic publish) under that load.
// Like the fleet experiment this is a wall-clock property of the host,
// meaningful only alongside the recorded GOMAXPROCS.
type ServeThroughputResult struct {
	// GOMAXPROCS is the parallelism available during the measurement.
	GOMAXPROCS int
	// Requests is the number of HTTP requests per measurement row.
	Requests int
	Rows     []ServeRow
	// SwapP50, SwapP99, and SwapMax summarize SwapTable latency across
	// every live rollout performed under load; SwapCount is the sample
	// size.
	SwapP50, SwapP99, SwapMax time.Duration
	SwapCount                 int
}

// ServeThroughput measures the serve front-end over the vulnerable
// nginx stand-in: real HTTP clients, defended tenant contexts, and a
// swapper rolling out a fresh sealed table every few milliseconds —
// the zero-downtime claim as a benchmark. Every request must succeed;
// a single failed request fails the experiment.
func ServeThroughput(cfg Config) (*ServeThroughputResult, error) {
	workerCounts := []int{1, 2, 4, 8}
	requests := 256
	if cfg.Quick {
		workerCounts = []int{1, 2, 4}
		requests = 64
	}

	svc := workload.Nginx()
	p, err := svc.VulnerableProgram()
	if err != nil {
		return nil, err
	}
	coder, err := coderFor(p, encoding.SchemeIncremental)
	if err != nil {
		return nil, err
	}
	// The rolled-out patches are the real thing: offline analysis of
	// the crashing request, exactly what a live rollout installs.
	a := &analysis.Analyzer{Coder: coder}
	rep, err := a.Analyze(p, svc.CrashRequest())
	if err != nil {
		return nil, fmt.Errorf("experiments: serve analysis: %w", err)
	}
	if rep.Patches.Len() == 0 {
		return nil, fmt.Errorf("experiments: serve analysis produced no patches")
	}

	out := &ServeThroughputResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Requests: requests}
	var swapLat []time.Duration

	for _, w := range workerCounts {
		s, err := serve.New(serve.Config{
			Program:      p,
			Coder:        coder,
			BenignSample: svc.BenignRequest(),
			Workers:      w,
			MaxInFlight:  4 * w,
			Engine:       cfg.Engine,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: serve w=%d: %w", w, err)
		}
		ts := httptest.NewServer(s.Handler())

		run := func() (time.Duration, error) {
			clients := w
			perClient := requests / clients
			errc := make(chan error, clients)
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						resp, err := http.Post(ts.URL+"/request", "application/octet-stream",
							bytes.NewReader(svc.BenignRequest()))
						if err != nil {
							errc <- err
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							errc <- fmt.Errorf("request failed: HTTP %d", resp.StatusCode)
							return
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			select {
			case err := <-errc:
				return 0, err
			default:
			}
			if elapsed <= 0 {
				elapsed = time.Nanosecond
			}
			return elapsed, nil
		}

		// Warm pass: pools, executors, inline caches.
		if _, err := run(); err != nil {
			ts.Close()
			s.Drain()
			return nil, fmt.Errorf("experiments: serve warmup w=%d: %w", w, err)
		}

		// Timed pass with the swapper rolling out tables throughout.
		stop := make(chan struct{})
		swapped := make(chan int, 1)
		go func() {
			n := 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					swapped <- n
					return
				default:
				}
				set := patch.NewSet()
				set.Merge(rep.Patches)
				if i%2 == 1 {
					set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: uint64(0xDEC0 + i), Types: patch.TypeUseAfterFree})
				}
				t0 := time.Now()
				if _, err := s.Fleet().SwapTable(set); err == nil {
					swapLat = append(swapLat, time.Since(t0))
					n++
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
		elapsed, err := run()
		close(stop)
		nswaps := <-swapped
		ts.Close()
		s.Drain()
		if err != nil {
			return nil, fmt.Errorf("experiments: serve w=%d: %w", w, err)
		}

		perClient := requests / w
		out.Rows = append(out.Rows, ServeRow{
			Workers:   w,
			ReqPerSec: float64(perClient*w) / elapsed.Seconds(),
			Swaps:     nswaps,
		})
	}

	sort.Slice(swapLat, func(i, j int) bool { return swapLat[i] < swapLat[j] })
	out.SwapCount = len(swapLat)
	if n := len(swapLat); n > 0 {
		out.SwapP50 = swapLat[n/2]
		out.SwapP99 = swapLat[min(n-1, n*99/100)]
		out.SwapMax = swapLat[n-1]
	}
	return out, nil
}

// Render prints the throughput table and the swap-latency summary.
func (r *ServeThroughputResult) Render() string {
	header := []string{"Workers", "req/s", "swaps in window"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%.0f", row.ReqPerSec),
			fmt.Sprintf("%d", row.Swaps),
		})
	}
	return fmt.Sprintf(
		"Serve front-end (HTTP req/s under continuous live patch rollout; wall-clock, GOMAXPROCS=%d, %d requests/row)\n",
		r.GOMAXPROCS, r.Requests) +
		table(header, rows) +
		fmt.Sprintf("SwapTable latency under load: p50=%s p99=%s max=%s (%d swaps)\n",
			r.SwapP50, r.SwapP99, r.SwapMax, r.SwapCount)
}
