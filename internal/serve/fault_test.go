package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/fleet"
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

// TestRolloutAnalyzePanic: a re-analysis that panics is a counted
// rollout failure, not a crash. The old table keeps serving and the
// attack's hash is released, so the next identical crash queues again.
func TestRolloutAnalyzePanic(t *testing.T) {
	var calls atomic.Int32
	s, ts, svc := newNginxServer(t, func(c *Config) {
		c.Analyze = func(p *prog.Program, attack []byte) (*patch.Set, error) {
			calls.Add(1)
			panic("injected: shadow engine bug")
		}
	})

	released := func() bool {
		s.pendingMu.Lock()
		defer s.pendingMu.Unlock()
		return len(s.pending) == 0
	}

	post(t, ts, "/request", svc.CrashRequest())
	waitFor(t, "rollout failure and release", func() bool { return s.Stats().RolloutFails >= 1 && released() })
	if s.fleet.Swaps() != 0 {
		t.Error("panicking analysis still swapped a table")
	}
	resp, _ := post(t, ts, "/request", svc.BenignRequest())
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-panic benign request: %d", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/request", svc.CrashRequest())
	if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeWild {
		t.Errorf("post-panic attack outcome %q, want wild", got)
	}
	waitFor(t, "re-analysis after release", func() bool { return calls.Load() == 2 && s.Stats().RolloutFails == 2 })
}

// panickyExec is an executor with an engine bug: it panics on the
// input "panic" and echoes any other input.
type panickyExec struct{}

func (panickyExec) Run(input []byte) (*prog.Result, error) {
	if string(input) == "panic" {
		panic("injected: engine bug")
	}
	return &prog.Result{Output: input}, nil
}

// TestWorkerExecutorPanic: an executor that panics mid-request fails
// that request with a 500, not the process. The worker recycles its
// context and serves the next job. The server is assembled by hand so
// that the panicking worker is the only one reading the job queue.
func TestWorkerExecutorPanic(t *testing.T) {
	f := fleet.New(fleet.Config{Patches: patch.NewSet()})
	ctx, err := f.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		cfg:      Config{MaxInFlight: 4, TenantQuota: 4},
		fleet:    f,
		jobs:     make(chan *job),
		inflight: make(chan struct{}, 4),
		tenants:  make(map[string]int),
	}
	s.workers.Add(1)
	go s.worker(ctx, panickyExec{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		close(s.jobs)
		s.workers.Wait()
	})

	resp, body := post(t, ts, "/request", []byte("panic"))
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("executor panicked")) {
		t.Errorf("panicking request: %d %q, want 500 naming the panic", resp.StatusCode, body)
	}
	resp, body = post(t, ts, "/request", []byte("next"))
	if resp.StatusCode != http.StatusOK || string(body) != "next" {
		t.Errorf("request after the panic: %d %q, want 200 \"next\"", resp.StatusCode, body)
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

// TestServeAbandonedWhileQueued: a request whose client disconnects
// while it waits for the only worker gives up its place. It is counted
// as abandoned, it never runs, and the handler does not leak.
func TestServeAbandonedWhileQueued(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := New(Config{Program: slowProgram(), BenignSample: workload.Request(1), Workers: 1, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/request", "application/octet-stream", bytes.NewReader(workload.Request(slowRequestN)))
		if err != nil {
			t.Errorf("slow request: %v", err)
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, "slow request admission", func() bool { return s.Stats().Admitted >= 1 })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/request", bytes.NewReader(workload.Request(1)))
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		queued <- err
	}()
	waitFor(t, "queued request admission", func() bool { return s.Stats().Admitted >= 2 })
	cancel()
	if err := <-queued; err == nil {
		t.Error("cancelled request got a response")
	}
	waitFor(t, "abandoned count", func() bool { return s.Stats().Abandoned >= 1 })

	if code := <-done; code != http.StatusOK {
		t.Fatalf("slow request: %d", code)
	}
	if got := drainAndCount(t, s, ts, before); got > before {
		t.Errorf("goroutines %d after drain, want <= %d", got, before)
	}
	if st := s.Stats(); st.Abandoned != 1 {
		t.Errorf("Abandoned=%d, want 1", st.Abandoned)
	}
	if runs := s.Fleet().Stats().Requests; runs != 1 {
		t.Errorf("fleet ran %d requests, want 1 (the abandoned one must not run)", runs)
	}
}

var _ = fmt.Sprint
