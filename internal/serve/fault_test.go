package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/workload"
)

// TestRolloutAnalyzeFailure: when shadow re-analysis fails, the server
// counts the failure, keeps serving on the old table, and benign
// traffic never notices. Degraded, not down.
func TestRolloutAnalyzeFailure(t *testing.T) {
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.Analyze = func(p *prog.Program, attack []byte) (*patch.Set, error) {
			return nil, errors.New("injected: shadow workbench unavailable")
		}
	})

	resp, _ := post(t, ts, "/request", svc.CrashRequest())
	if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeWild {
		t.Fatalf("attack outcome %q, want wild", got)
	}
	waitFor(t, "rollout failure", func() bool { return s.Stats().RolloutFails >= 1 })

	if s.fleet.Swaps() != 0 {
		t.Error("failed analysis still swapped a table")
	}
	// Old table keeps serving: the attack stays wild, benign stays OK.
	resp, _ = post(t, ts, "/request", svc.CrashRequest())
	if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeWild {
		t.Errorf("post-failure attack outcome %q, want wild", got)
	}
	resp, _ = post(t, ts, "/request", svc.BenignRequest())
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-failure benign request: %d", resp.StatusCode)
	}
}

// TestRolloutSwapFailure: a failure building/installing the new table
// (injected through the swap seam) degrades the same way — counted,
// old table serving.
func TestRolloutSwapFailure(t *testing.T) {
	s, ts, svc := newNginxServer(t, nil)
	s.swapFn = func(*patch.Set) (*defense.SealedTable, error) {
		return nil, errors.New("injected: table build failed")
	}

	post(t, ts, "/request", svc.CrashRequest())
	waitFor(t, "rollout failure", func() bool { return s.Stats().RolloutFails >= 1 })
	if s.Stats().Rollouts != 0 || s.fleet.Swaps() != 0 {
		t.Error("failed swap recorded as a rollout")
	}
	resp, _ := post(t, ts, "/request", svc.BenignRequest())
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-failure benign request: %d", resp.StatusCode)
	}
}

// TestRolloutEmptyAnalysis: an analysis that returns no patches is a
// rollout failure, not a swap to an empty table.
func TestRolloutEmptyAnalysis(t *testing.T) {
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.Analyze = func(p *prog.Program, attack []byte) (*patch.Set, error) {
			return patch.NewSet(), nil
		}
	})
	post(t, ts, "/request", svc.CrashRequest())
	waitFor(t, "rollout failure", func() bool { return s.Stats().RolloutFails >= 1 })
	if s.fleet.Swaps() != 0 {
		t.Error("empty analysis swapped a table")
	}
}

// TestRolloutDedupesIdenticalCrashes: while a re-analysis of an
// attack input is queued or in flight, more wild crashes with the same
// input are counted as duplicates — neither analyzed again nor
// dropped. A crash with a different input still queues, and the hash
// is released when its rollout ends, so the next identical crash is
// analyzed again.
func TestRolloutDedupesIdenticalCrashes(t *testing.T) {
	const n = 6
	var calls atomic.Int32
	gate := make(chan struct{})
	var open sync.Once
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.Analyze = func(p *prog.Program, attack []byte) (*patch.Set, error) {
			calls.Add(1)
			<-gate
			return nil, errors.New("injected: analysis held, then failed")
		}
	})
	// Cleanups run last-in first-out: the gate opens before Drain.
	t.Cleanup(func() { open.Do(func() { close(gate) }) })
	pending := func() int {
		s.pendingMu.Lock()
		defer s.pendingMu.Unlock()
		return len(s.pending)
	}

	for i := 0; i < n; i++ {
		resp, _ := post(t, ts, "/request", svc.CrashRequest())
		if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeWild {
			t.Fatalf("crash %d outcome %q, want wild", i, got)
		}
	}
	waitFor(t, "first analysis", func() bool { return calls.Load() == 1 })
	if st := s.Stats(); st.BundleDuplicates != n-1 || st.BundleDrops != 0 {
		t.Errorf("after %d identical crashes: duplicates=%d drops=%d, want %d/0",
			n, st.BundleDuplicates, st.BundleDrops, n-1)
	}

	// The same crash with a trailing byte hashes differently: it queues
	// behind the held analysis.
	post(t, ts, "/request", append(svc.CrashRequest(), 0))
	if st := s.Stats(); st.BundleDuplicates != n-1 || st.BundleDrops != 0 || pending() != 2 {
		t.Errorf("distinct crash: duplicates=%d drops=%d pending=%d, want %d/0/2",
			st.BundleDuplicates, st.BundleDrops, pending(), n-1)
	}

	open.Do(func() { close(gate) })
	waitFor(t, "both rollouts to end", func() bool { return s.Stats().RolloutFails == 2 && pending() == 0 })
	if got := calls.Load(); got != 2 {
		t.Errorf("analyses = %d, want 2 (one per distinct input)", got)
	}
	post(t, ts, "/request", svc.CrashRequest())
	waitFor(t, "re-analysis after release", func() bool { return s.Stats().RolloutFails == 3 })
	if got := calls.Load(); got != 3 {
		t.Errorf("analyses = %d, want 3: a released hash must queue again", got)
	}
}

// TestRolloutPendingBound: the pending set holds at most RolloutQueue+1
// hashes (the queue plus the analysis in flight); distinct crashes
// beyond that are dropped and counted.
func TestRolloutPendingBound(t *testing.T) {
	const queue = 2
	var calls atomic.Int32
	gate := make(chan struct{})
	var open sync.Once
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.RolloutQueue = queue
		c.Analyze = func(p *prog.Program, attack []byte) (*patch.Set, error) {
			calls.Add(1)
			<-gate
			return nil, errors.New("injected: analysis held, then failed")
		}
	})
	t.Cleanup(func() { open.Do(func() { close(gate) }) })

	// The first crash goes in flight; the next two fill the queue.
	const distinct = queue + 3
	for i := 0; i < distinct; i++ {
		post(t, ts, "/request", append(svc.CrashRequest(), make([]byte, i)...))
		if i == 0 {
			waitFor(t, "first analysis", func() bool { return calls.Load() == 1 })
		}
	}
	s.pendingMu.Lock()
	held := len(s.pending)
	s.pendingMu.Unlock()
	if st := s.Stats(); held != queue+1 || st.BundleDrops != distinct-queue-1 || st.BundleDuplicates != 0 {
		t.Errorf("pending=%d drops=%d duplicates=%d, want %d/%d/0",
			held, st.BundleDrops, st.BundleDuplicates, queue+1, distinct-queue-1)
	}
	open.Do(func() { close(gate) })
	waitFor(t, "queued rollouts to end", func() bool { return s.Stats().RolloutFails == queue+1 })
}

// TestSwapRacingDrain: a rollout in flight when Drain begins completes
// cleanly — the drain waits for it, the swap lands on the (now idle)
// fleet, and nothing deadlocks or leaks.
func TestSwapRacingDrain(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.Analyze = func(p *prog.Program, attack []byte) (*patch.Set, error) {
			close(entered)
			<-release
			return patch.NewSet(patch.Patch{Fn: heapsim.FnMalloc, CCID: 0x1, Types: patch.TypeOverflow}), nil
		}
	})

	post(t, ts, "/request", svc.CrashRequest())
	<-entered // re-analysis is mid-flight

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a rollout was still re-analyzing")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain deadlocked against the in-flight rollout")
	}
	if s.Stats().Rollouts != 1 || s.fleet.Swaps() != 1 {
		t.Errorf("rollout racing drain: rollouts=%d swaps=%d, want 1/1",
			s.Stats().Rollouts, s.fleet.Swaps())
	}
	_ = ts
}

// TestServeNoGoroutineLeak: a full serve lifecycle — traffic, a crash,
// a live rollout, drain — returns the goroutine count to its baseline.
func TestServeNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := workload.Nginx()
	p, err := svc.VulnerableProgram()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Program: p, BenignSample: svc.BenignRequest(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	for i := 0; i < 5; i++ {
		resp, _ := post(t, ts, "/request", svc.BenignRequest())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("benign request %d: %d", i, resp.StatusCode)
		}
	}
	post(t, ts, "/request", svc.CrashRequest())
	waitFor(t, "rollout", func() bool {
		st := s.Stats()
		return st.Rollouts+st.RolloutFails >= 1
	})

	if got := drainAndCount(t, s, ts, before); got > before {
		t.Errorf("goroutines %d after drain, want <= %d", got, before)
	}
}

var _ = fmt.Sprint
