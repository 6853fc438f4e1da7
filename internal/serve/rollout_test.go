package serve

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"heaptherapy/internal/prog"
)

// TestLiveRolloutE2E is the acceptance test for the headline
// mechanism, end to end under live concurrent traffic:
//
//  1. a seeded attack crashes a defended-but-unpatched tenant (wild
//     fault, 500);
//  2. the server re-analyzes the crashing input off the request path,
//     builds a patch table, and swaps it in atomically — no restart;
//  3. replaying the attack is now CONTAINED (guard page, 502) and the
//     patch's hits show up in /metrics;
//  4. benign traffic hammering the server through all of it never
//     fails a single request.
//
// Run under -race this also proves the swap publication is clean.
//
// Each engine runs twice: the plain row attacks once benign traffic is
// already flowing, the "-cold" row attacks first, so the crash lands on
// a worker's very first run and benign traffic starts only after it.
func TestLiveRolloutE2E(t *testing.T) {
	for _, engine := range prog.AllEngines() {
		for _, cold := range []bool{false, true} {
			name := engine.String()
			if cold {
				name += "-cold"
			}
			t.Run(name, func(t *testing.T) {
				testLiveRollout(t, engine, cold)
			})
		}
	}
}

func testLiveRollout(t *testing.T, engine prog.Engine, cold bool) {
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.Workers = 4
		c.MaxInFlight = 64
		c.Engine = engine
	})

	// The attack. Unpatched, it escapes the defense: wild fault.
	attack := func() {
		resp, _ := post(t, ts, "/request?tenant=attacker", svc.CrashRequest())
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("unpatched attack: %d, want 500", resp.StatusCode)
		}
		if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeWild {
			t.Fatalf("unpatched attack outcome %q, want %q", got, OutcomeWild)
		}
	}
	if cold {
		attack()
	}

	// Benign traffic, continuous through the whole incident.
	stop := make(chan struct{})
	var benignOK, benignFail atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, out := post(t, ts, "/request", svc.BenignRequest())
				if resp.StatusCode == http.StatusOK && !bytes.Contains(out, svc.Secret()) {
					benignOK.Add(1)
				} else {
					benignFail.Add(1)
				}
			}
		}()
	}

	if !cold {
		waitFor(t, "benign traffic", func() bool { return benignOK.Load()+benignFail.Load() > 0 })
		attack()
	}

	// The server patches itself from the trapped crash.
	waitFor(t, "live rollout", func() bool { return s.Stats().Rollouts >= 1 })
	if s.fleet.Table().Epoch() == 0 {
		t.Fatal("rollout reported but no table swap")
	}

	// Replay: the same attack is now contained by the guard
	// page. The first worker to pick it up has already synced
	// (sync happens before each request), so this is immediate,
	// not eventual.
	resp, _ := post(t, ts, "/request?tenant=attacker", svc.CrashRequest())
	if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeContained {
		t.Fatalf("patched attack outcome %q, want %q (status %d)", got, OutcomeContained, resp.StatusCode)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("patched attack status %d, want 502", resp.StatusCode)
	}

	// The patch is live: benign traffic's allocations hit it.
	waitFor(t, "patch hits in metrics", func() bool {
		m := s.Metrics()
		return m.TableSwaps >= 1 && len(m.PatchHits) > 0
	})

	close(stop)
	wg.Wait()
	if benignFail.Load() != 0 {
		t.Fatalf("%d benign requests failed during the incident (%d ok)", benignFail.Load(), benignOK.Load())
	}
	if benignOK.Load() == 0 {
		t.Fatal("no benign traffic flowed during the incident")
	}

	st := s.Stats()
	if st.Wild == 0 || st.Contained == 0 {
		t.Errorf("wild=%d contained=%d, want both nonzero", st.Wild, st.Contained)
	}
}
