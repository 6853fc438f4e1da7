package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"heaptherapy/internal/fleet"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
	"heaptherapy/internal/workload"
)

// newNginxServer builds a front-end over the vulnerable nginx stand-in
// plus an httptest listener. mut tweaks the config before New.
func newNginxServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server, *workload.Service) {
	t.Helper()
	svc := workload.Nginx()
	p, err := svc.VulnerableProgram()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Program:     p,
		Workers:     2,
		MaxInFlight: 32,
		Telemetry:   telemetry.New(telemetry.Config{}),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts, svc
}

// post sends one service request and returns the response.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// slowProgram's request latency is attacker^Wtest-controlled: the
// 2-byte length field drives a compute loop, so a test can hold a
// worker busy deterministically while it probes admission control.
func slowProgram() *prog.Program {
	return prog.MustLink(&prog.Program{
		Name: "slow-service",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.ReadInput{Dst: "n", N: prog.C(2)},
				prog.Alloc{Dst: "buf", Size: prog.C(64)},
				prog.Assign{Dst: "w", E: prog.C(0)},
				prog.While{Cond: prog.Lt(prog.V("w"), prog.Mul(prog.V("n"), prog.C(500))), Body: []prog.Stmt{
					prog.Assign{Dst: "w", E: prog.Add(prog.V("w"), prog.C(1))},
				}},
				prog.Store{Base: prog.V("buf"), Src: prog.V("w"), N: prog.C(8)},
				prog.Load{Dst: "back", Base: prog.V("buf"), N: prog.C(8)},
				prog.FreeStmt{Ptr: prog.V("buf")},
				prog.OutputVar{Src: "back"},
			}},
		},
	})
}

func TestServeBenign(t *testing.T) {
	s, ts, svc := newNginxServer(t, nil)
	resp, out := post(t, ts, "/request", svc.BenignRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("benign request: %d %s", resp.StatusCode, out)
	}
	if resp.Header.Get("X-HTP-Outcome") != OutcomeOK {
		t.Errorf("outcome header %q", resp.Header.Get("X-HTP-Outcome"))
	}
	if uint64(len(out)) != svc.BufSize {
		t.Errorf("reply %d bytes, want %d", len(out), svc.BufSize)
	}
	if bytes.Contains(out, svc.Secret()) {
		t.Error("benign reply leaked the secret")
	}
	if st := s.Stats(); st.Admitted != 1 || st.Rejected != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestServeOversizedBody: a body one byte past maxRequestBytes is
// refused with 413 instead of being truncated and served; it is never
// admitted, so no worker runs it. A body of exactly maxRequestBytes is
// still admitted.
func TestServeOversizedBody(t *testing.T) {
	s, _, _ := newNginxServer(t, nil)
	h := s.Handler()
	serve := func(n int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/request", bytes.NewReader(make([]byte, n))))
		return rec
	}

	if rec := serve(maxRequestBytes + 1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s, want 413", rec.Code, rec.Body)
	}
	if st := s.Stats(); st.Admitted != 0 {
		t.Errorf("oversized body admitted: %+v", st)
	}
	if rec := serve(maxRequestBytes); rec.Code == http.StatusRequestEntityTooLarge {
		t.Errorf("body of exactly maxRequestBytes refused with 413")
	}
	if st := s.Stats(); st.Admitted != 1 {
		t.Errorf("limit-sized body: admitted %d, want 1", st.Admitted)
	}
}

func TestServeHealthz(t *testing.T) {
	_, ts, _ := newNginxServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// TestServeBackpressure: with one worker and MaxInFlight 1, a slow
// request in flight forces the next request into a 429 with
// Retry-After — load shedding, not queueing without bound.
func TestServeBackpressure(t *testing.T) {
	s, ts, _ := newNginxServer(t, func(c *Config) {
		c.Program = slowProgram()
		c.Workers = 1
		c.MaxInFlight = 1
	})

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, "/request", workload.Request(slowRequestN)) // ~10M statements
		done <- resp.StatusCode
	}()
	waitFor(t, "slow request admission", func() bool { return s.Stats().Admitted >= 1 })

	resp, _ := post(t, ts, "/request", workload.Request(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("slow request: %d", code)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected=%d, want 1", st.Rejected)
	}
}

// TestServeTenantQuota: one tenant saturating its quota is shed while
// other tenants keep flowing.
func TestServeTenantQuota(t *testing.T) {
	s, ts, _ := newNginxServer(t, func(c *Config) {
		c.Program = slowProgram()
		c.Workers = 2
		c.MaxInFlight = 8
		c.TenantQuota = 1
	})

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, "/request?tenant=greedy", workload.Request(slowRequestN))
		done <- resp.StatusCode
	}()
	waitFor(t, "slow request admission", func() bool { return s.Stats().Admitted >= 1 })

	resp, _ := post(t, ts, "/request?tenant=greedy", workload.Request(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: %d, want 429", resp.StatusCode)
	}
	resp, _ = post(t, ts, "/request?tenant=modest", workload.Request(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: %d, want 200", resp.StatusCode)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("slow request: %d", code)
	}
	if st := s.Stats(); st.QuotaRejected != 1 {
		t.Errorf("QuotaRejected=%d, want 1", st.QuotaRejected)
	}
}

// TestServeTenantMapBounded: the per-tenant admission map forgets a
// tenant once its last request ends, so a client that names a new
// tenant on every request cannot grow server memory without bound.
func TestServeTenantMapBounded(t *testing.T) {
	s, _, svc := newNginxServer(t, nil)
	h := s.Handler()
	body := svc.BenignRequest()
	for i := 0; i < 10_000; i++ {
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/request?tenant=t%d", i), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	s.tenantMu.Lock()
	n := len(s.tenants)
	s.tenantMu.Unlock()
	if n != 0 {
		t.Fatalf("tenant map holds %d entries after every request ended, want 0", n)
	}
}

// TestServeMetrics: /metrics is a JSON document carrying front-end,
// fleet, and telemetry state.
func TestServeMetrics(t *testing.T) {
	_, ts, svc := newNginxServer(t, nil)
	for i := 0; i < 3; i++ {
		post(t, ts, "/request", svc.BenignRequest())
	}
	resp, body := post0(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding metrics: %v\n%s", err, body)
	}
	if m.Program != "nginx-vulnerable" {
		t.Errorf("program %q", m.Program)
	}
	if m.Requests != 3 || m.Crashes != 0 {
		t.Errorf("requests/crashes = %d/%d", m.Requests, m.Crashes)
	}
	if m.Telemetry == nil || m.Telemetry.Counters["requests"] != 3 {
		t.Errorf("telemetry snapshot missing or wrong: %+v", m.Telemetry)
	}
	if m.Defense.Allocs == 0 {
		t.Error("defense stats empty")
	}
}

// TestServeStepLimit: a request whose run exceeds Config.MaxSteps is
// refused with 422 and its own outcome, counted in StepLimits (not as
// an engine error), and the worker keeps serving. /metrics names the
// counter once it is nonzero and omits it (and engine_errors) before.
func TestServeStepLimit(t *testing.T) {
	svc := workload.Nginx()
	p, err := svc.VulnerableProgram()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := fleet.New(fleet.Config{}).Acquire()
	if err != nil {
		t.Fatal(err)
	}
	it, err := prog.New(p, prog.Config{Backend: ctx.Backend()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := it.Run(svc.BenignRequest())
	if err != nil || res.Steps < 2 {
		t.Fatalf("standalone benign run: steps=%v err=%v", res, err)
	}
	s, ts, _ := newNginxServer(t, func(c *Config) { c.MaxSteps = res.Steps / 2 })

	_, body := post0(t, ts, "/metrics")
	if bytes.Contains(body, []byte("step_limits")) || bytes.Contains(body, []byte("engine_errors")) {
		t.Errorf("/metrics names zero budget counters:\n%s", body)
	}
	for i := 1; i <= 2; i++ {
		resp, body := post(t, ts, "/request", svc.BenignRequest())
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("request %d over budget: %d %q, want 422", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeStepLimit {
			t.Errorf("request %d outcome %q, want %q", i, got, OutcomeStepLimit)
		}
		if st := s.Stats(); st.StepLimits != uint64(i) || st.EngineErrors != 0 {
			t.Errorf("after %d requests: step_limits=%d engine_errors=%d, want %d/0", i, st.StepLimits, st.EngineErrors, i)
		}
	}
	if m := s.Metrics(); m.Requests != 2 {
		t.Errorf("fleet served %d requests, want 2 (each recycled)", m.Requests)
	}
	_, body = post0(t, ts, "/metrics")
	if !bytes.Contains(body, []byte(`"step_limits": 2`)) {
		t.Errorf("/metrics lacks step_limits:\n%s", body)
	}
}

// TestServeHeapLimit: a request whose allocation finds the tenant's
// space at its Config.Space limit is refused with 422 and its own
// outcome. It is not an attack: it is not counted wild and queues no
// re-analysis, and /metrics names heap_limits only once it is nonzero.
func TestServeHeapLimit(t *testing.T) {
	oneMalloc := prog.MustLink(&prog.Program{
		Name: "one-malloc",
		Funcs: map[string]*prog.Func{
			"main": {Body: []prog.Stmt{
				prog.ReadInput{Dst: "n", N: prog.C(4)},
				prog.Alloc{Dst: "buf", Size: prog.V("n")},
				prog.Store{Base: prog.V("buf"), Src: prog.C(1), N: prog.C(8)},
				prog.FreeStmt{Ptr: prog.V("buf")},
			}},
		},
	})
	s, ts, _ := newNginxServer(t, func(c *Config) {
		c.Program = oneMalloc
		c.Space.Limit = 8 << 20
	})
	size := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }

	if resp, body := post(t, ts, "/request", size(1<<20)); resp.StatusCode != http.StatusOK {
		t.Fatalf("1 MiB request: %d %q, want 200", resp.StatusCode, body)
	}
	_, body := post0(t, ts, "/metrics")
	if bytes.Contains(body, []byte("heap_limits")) {
		t.Errorf("/metrics names a zero heap_limits:\n%s", body)
	}
	resp, body := post(t, ts, "/request", size(64<<20))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("64 MiB request: %d %q, want 422", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-HTP-Outcome"); got != OutcomeHeapLimit {
		t.Errorf("64 MiB request outcome %q, want %q", got, OutcomeHeapLimit)
	}
	s.Drain() // the rollout worker has finished anything queued
	if st := s.Stats(); st.HeapLimits != 1 || st.Wild != 0 || st.RolloutFails != 0 || st.Rollouts != 0 || st.EngineErrors != 0 {
		t.Errorf("stats %+v, want heap_limits 1 and no wild, rollout or engine error", st)
	}
	m := s.Metrics()
	if m.Requests != 2 {
		t.Errorf("fleet served %d requests, want 2", m.Requests)
	}
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"heap_limits":1`)) {
		t.Errorf("/metrics lacks heap_limits:\n%s", body)
	}
}

// post0 GETs a path.
func post0(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServeDrain: drain lets in-flight requests finish, rejects new
// ones with 503, and is idempotent.
func TestServeDrain(t *testing.T) {
	s, ts, svc := newNginxServer(t, nil)
	if resp, _ := post(t, ts, "/request", svc.BenignRequest()); resp.StatusCode != http.StatusOK {
		t.Fatal("pre-drain request failed")
	}
	s.Drain()
	s.Drain() // idempotent
	resp, _ := post(t, ts, "/request", svc.BenignRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %d, want 503", resp.StatusCode)
	}
	if !s.Stats().Draining {
		t.Error("Stats does not report draining")
	}
}

// TestServeDrainCompletesInFlight: a request racing Drain finishes
// normally — zero dropped requests is the drain contract.
func TestServeDrainCompletesInFlight(t *testing.T) {
	s, ts, _ := newNginxServer(t, func(c *Config) {
		c.Program = slowProgram()
		c.Workers = 1
	})
	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts, "/request", workload.Request(slowRequestN))
		done <- resp.StatusCode
	}()
	waitFor(t, "slow request admission", func() bool { return s.Stats().Admitted >= 1 })
	s.Drain()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d, want 200", code)
	}
}

// drainAndCount drains s, closes ts, and waits for the goroutine count
// to settle back to want (see prog's countGoroutines for why retries).
func drainAndCount(t *testing.T, s *Server, ts *httptest.Server, want int) int {
	t.Helper()
	s.Drain()
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

var _ = fmt.Sprint // keep fmt for debug edits
