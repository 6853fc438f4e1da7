package serve

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// TestHotSwapSoak is the concurrency soak for zero-downtime rollout:
// soakClients goroutines hammer benign traffic while a swapper
// replaces the sealed table soakSwaps times mid-flight. The contract
// under proof (run it with -race):
//
//   - zero failed, zero dropped requests — every response is a clean
//     200 with the right body;
//   - requests that started before a swap finish on their old table
//     (the epoch header never exceeds the swaps performed when the
//     request ran);
//   - post-swap requests observe the patched table: the final metrics
//     show hits on the rolled-out patch under the final epoch.
func TestHotSwapSoak(t *testing.T) {
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.Workers = 4
		c.MaxInFlight = 256
		c.Engine = prog.EngineCompiled
	})

	// The rolled-out patch set is the real one: re-analysis of the
	// crashing request, exactly what a live rollout would install.
	a := &analysis.Analyzer{Coder: s.coder}
	rep, err := a.Analyze(s.cfg.Program, svc.CrashRequest())
	if err != nil || rep.Patches.Len() == 0 {
		t.Fatalf("analysis: %v (patches %d)", err, rep.Patches.Len())
	}

	var wg sync.WaitGroup
	var fails, maxEpoch atomic.Uint64
	for c := 0; c < soakClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := "/request?tenant=t" + strconv.Itoa(c)
			for i := 0; i < soakRequests; i++ {
				resp, out := post(t, ts, tenant, svc.BenignRequest())
				if resp.StatusCode != http.StatusOK || uint64(len(out)) != svc.BufSize {
					fails.Add(1)
					continue
				}
				epoch, err := strconv.ParseUint(resp.Header.Get("X-HTP-Epoch"), 10, 64)
				if err != nil {
					fails.Add(1)
					continue
				}
				for {
					cur := maxEpoch.Load()
					if epoch <= cur || maxEpoch.CompareAndSwap(cur, epoch) {
						break
					}
				}
			}
		}(c)
	}

	// The swapper: repeated live rollouts under full traffic. Odd
	// swaps add a decoy patch so consecutive tables really differ.
	wg.Add(1)
	var swapErr error
	go func() {
		defer wg.Done()
		for i := 0; i < soakSwaps; i++ {
			set := patch.NewSet()
			set.Merge(rep.Patches)
			if i%2 == 1 {
				set.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: uint64(0xDEC0 + i), Types: patch.TypeUseAfterFree})
			}
			if _, err := s.fleet.SwapTable(set); err != nil {
				swapErr = err
				return
			}
		}
	}()
	wg.Wait()

	if swapErr != nil {
		t.Fatalf("swap under load: %v", swapErr)
	}
	if n := fails.Load(); n != 0 {
		t.Fatalf("%d requests failed or were dropped across %d swaps", n, soakSwaps)
	}
	fs := s.fleet.Stats()
	if fs.TableSwaps != uint64(soakSwaps) {
		t.Errorf("TableSwaps=%d, want %d", fs.TableSwaps, soakSwaps)
	}
	want := uint64(soakClients * soakRequests)
	if fs.Requests != want {
		t.Errorf("Requests=%d, want %d", fs.Requests, want)
	}
	if fs.Crashes != 0 {
		t.Errorf("Crashes=%d, want 0 (benign-only soak)", fs.Crashes)
	}
	// An in-flight request never observed a table from its future;
	// the epoch ceiling is the swap count.
	if maxEpoch.Load() > uint64(soakSwaps) {
		t.Errorf("a request reported epoch %d > %d swaps", maxEpoch.Load(), soakSwaps)
	}

	// Post-swap traffic ran against the rolled-out patch: the CURRENT
	// table's hit tally for the reply-buffer patch is nonzero. (Each
	// swap installs a fresh table with fresh counters, so hits here
	// prove traffic AFTER the last swap still probed the patch.)
	resp, out := post(t, ts, "/request", svc.BenignRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-soak benign request: %d", resp.StatusCode)
	}
	_ = out
	m := s.Metrics()
	if len(m.PatchHits) == 0 {
		t.Error("no patch hits on the final table after post-swap traffic")
	}
}
