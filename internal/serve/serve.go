// Package serve is the live-traffic front-end over the fleet runtime:
// an HTTP server that hands each request to a worker owning one
// defended tenant context, executes the service program, and — the
// point of the exercise — rolls out code-less heap patches under load
// with zero downtime. When a defended tenant traps a wild heap fault,
// the offending request body is queued for re-analysis, re-executed
// under shadow memory off the request path, and the patches that
// emerge are sealed into a new table and swapped in atomically.
// In-flight requests finish on the table they started with (sealed
// tables are immutable, so the old one stays valid forever); each
// worker re-points its context before its next request, so that
// request's allocations look up the new table. No restart, no dropped
// requests — the paper's "patching without restarting" claim
// (Section I), made operational.
//
// The front-end also carries the unglamorous production machinery:
// admission control (a bounded in-flight semaphore), backpressure
// (429 + Retry-After once saturated), per-tenant quotas, a /metrics
// endpoint backed by the telemetry collector, and graceful drain.
package serve

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/core"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// Request outcomes, stamped into the X-HTP-Outcome response header.
const (
	// OutcomeOK is a request that completed normally.
	OutcomeOK = "ok"
	// OutcomeContained is a request that faulted on a guard page: the
	// defense converted an exploit into a clean per-request crash.
	OutcomeContained = "contained"
	// OutcomeWild is a request that faulted off any guard page — an
	// unpatched vulnerability. It triggers a live patch rollout.
	OutcomeWild = "wild"
	// OutcomeStepLimit is a request whose run exceeded its step budget
	// (Config.MaxSteps); it is refused with 422.
	OutcomeStepLimit = "step-limit"
	// OutcomeHeapLimit is a request whose allocation found the space at
	// its Config.Space limit: refused with 422, not a rollout trigger.
	OutcomeHeapLimit = "heap-limit"
)

// maxRequestBytes bounds a request body; a longer body is refused
// with 413 before it reaches a worker.
const maxRequestBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Program is the linked service program; each request is one run
	// with the request body as input. Required.
	Program *prog.Program
	// Coder is the calling-context coder; built from the program's
	// graph (incremental scheme, PCC encoder) when nil.
	Coder *encoding.Coder
	// BenignSample is kept so existing configurations still compile.
	//
	// Deprecated: no effect. Re-analysis needs only the crashing input.
	BenignSample []byte
	// Workers is the number of worker goroutines, each owning one
	// defended tenant context for its lifetime (0 = 4).
	Workers int
	// MaxInFlight bounds admitted-but-unfinished requests; beyond it
	// the server sheds load with 429 + Retry-After (0 = 4*Workers).
	MaxInFlight int
	// TenantQuota bounds one tenant's share of MaxInFlight
	// (0 = MaxInFlight: no per-tenant isolation).
	TenantQuota int
	// Patches is the initial patch configuration (nil = none: the
	// server starts unpatched and patches itself from live crashes).
	Patches *patch.Set
	// Engine selects the execution substrate (compiled, the zero
	// value, or tree).
	Engine prog.Engine
	// MaxSteps bounds each request's execution (0 = engine default).
	MaxSteps uint64
	// Space configures each tenant's address space.
	Space mem.Config
	// Family selects the defense policy family every tenant runs
	// (default defense.FamilyHT). Live patch rollout still swaps the
	// shared table under non-HT families (the seam is policy-agnostic),
	// though only HT consults its contents.
	Family defense.Family
	// Telemetry collects per-tenant counters and events; /metrics
	// serves its JSON snapshot. Optional.
	Telemetry *telemetry.Collector
	// Analyze is the shadow re-analysis seam: given the program and a
	// crashing input, return the patches to roll out. Nil uses the
	// offline analyzer (shadow memory + red zones) in-process. Tests
	// inject failures here.
	Analyze func(p *prog.Program, attack []byte) (*patch.Set, error)
}

// rolloutQueue bounds crashing inputs waiting for re-analysis; further
// crashes are dropped (counted, not fatal) until the queue drains. A
// crash whose attack input matches one already queued or under analysis
// is not queued again.
const rolloutQueue = 16

// Stats is a point-in-time snapshot of front-end activity.
type Stats struct {
	// Admitted counts requests that passed admission control.
	Admitted uint64 `json:"admitted"`
	// Rejected counts 429s from the in-flight bound.
	Rejected uint64 `json:"rejected"`
	// QuotaRejected counts 429s from per-tenant quotas.
	QuotaRejected uint64 `json:"quota_rejected"`
	// Contained counts requests ended by a guard-page fault.
	Contained uint64 `json:"contained"`
	// Wild counts requests ended by a wild fault.
	Wild uint64 `json:"wild"`
	// Rollouts counts successful live patch rollouts: the epoch of the
	// fleet's current table.
	Rollouts uint64 `json:"rollouts"`
	// RolloutFails counts rollout attempts that failed and left the
	// previous table serving.
	RolloutFails uint64 `json:"rollout_fails"`
	// BundleDrops counts crashing inputs dropped on a full rollout
	// queue.
	BundleDrops uint64 `json:"bundle_drops"`
	// BundleDuplicates counts wild crashes not queued because a
	// re-analysis of the same attack input (same SHA-256) was already
	// queued or in flight.
	BundleDuplicates uint64 `json:"bundle_duplicates"`
	// Abandoned counts admitted requests whose client went away while
	// the request waited for a worker; they never ran. Omitted from
	// the JSON while zero, so an undisturbed server's /metrics keeps
	// its shape.
	Abandoned uint64 `json:"abandoned,omitempty"`
	// StepLimits counts requests refused because their run exceeded
	// Config.MaxSteps. Omitted from the JSON while zero.
	StepLimits uint64 `json:"step_limits,omitempty"`
	// HeapLimits counts OutcomeHeapLimit requests. Omitted from the
	// JSON while zero.
	HeapLimits uint64 `json:"heap_limits,omitempty"`
	// EngineErrors counts requests failed by the engine rather than the
	// guest (a table sync, engine error or panic, or a failed context
	// recycle). Omitted from the JSON while zero.
	EngineErrors uint64 `json:"engine_errors,omitempty"`
	// Draining reports that the server has begun graceful drain.
	Draining bool `json:"draining"`
}

// job is one admitted request on its way to a worker.
type job struct {
	input []byte
	resp  chan jobResult
}

// jobResult is what a worker hands back to the HTTP handler.
type jobResult struct {
	output  []byte
	outcome string
	epoch   uint64 // epoch of the sealed table the request ran on
	err     error
}

// Server is the live-traffic front-end. Construct with New, wire
// Handler into an http.Server (or httptest), and Drain before exit.
type Server struct {
	cfg   Config
	fleet *fleet.Fleet
	coder *encoding.Coder

	jobs  chan *job
	queue chan rolloutJob // wild crashes awaiting re-analysis

	// pending holds the attack-input hashes of queued and in-flight
	// re-analyses, at most rolloutQueue+1 of them; an entry is released
	// when its rollout ends, whether it succeeded or failed.
	pendingMu sync.Mutex
	pending   map[[sha256.Size]byte]struct{}

	inflight chan struct{} // admission tokens

	// tenants counts each tenant's in-flight requests. A tenant's entry
	// goes when its count returns to 0, so the map holds at most
	// MaxInFlight names however many distinct tenants a client sends.
	tenantMu sync.Mutex
	tenants  map[string]int

	// swapFn installs a merged patch set as the fleet's new sealed
	// table. It is a seam so fault-injection tests can fail the
	// install step; production is fleet.SwapTable.
	swapFn  func(*patch.Set) (*defense.SealedTable, error)
	analyze func(p *prog.Program, attack []byte) (*patch.Set, error)

	// patchMu serializes rollouts: the cumulative patch set and the
	// swap that publishes it move together.
	patchMu sync.Mutex
	patches *patch.Set

	drainMu  sync.Mutex
	draining bool
	handlers sync.WaitGroup // HTTP handlers holding jobs in flight
	workers  sync.WaitGroup
	rollout  sync.WaitGroup

	admitted      atomic.Uint64
	rejected      atomic.Uint64
	quotaRejected atomic.Uint64
	contained     atomic.Uint64
	wild          atomic.Uint64
	rolloutFails  atomic.Uint64
	bundleDrops   atomic.Uint64
	bundleDups    atomic.Uint64
	abandoned     atomic.Uint64
	stepLimits    atomic.Uint64
	heapLimits    atomic.Uint64
	engineErrors  atomic.Uint64
}

// rolloutJob is one queued crashing request body and its SHA-256.
type rolloutJob struct {
	input []byte
	key   [sha256.Size]byte
}

// New builds the front-end: a defended fleet, one worker goroutine per
// tenant context (each holding a persistent executor, built once), and
// the off-path rollout worker.
func New(cfg Config) (*Server, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("serve: Config.Program is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * cfg.Workers
	}
	if cfg.TenantQuota <= 0 || cfg.TenantQuota > cfg.MaxInFlight {
		cfg.TenantQuota = cfg.MaxInFlight
	}
	coder := cfg.Coder
	if coder == nil {
		sys, err := core.NewSystem(cfg.Program, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		coder = sys.Coder()
	}
	patches := patch.NewSet()
	if cfg.Patches != nil {
		patches.Merge(cfg.Patches)
	}

	f := fleet.New(fleet.Config{
		Patches:   patches,
		Family:    cfg.Family,
		Space:     cfg.Space,
		Telemetry: cfg.Telemetry,
	})

	s := &Server{
		cfg:      cfg,
		fleet:    f,
		coder:    coder,
		jobs:     make(chan *job),
		queue:    make(chan rolloutJob, rolloutQueue),
		pending:  make(map[[sha256.Size]byte]struct{}, rolloutQueue+1),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		tenants:  make(map[string]int),
		patches:  patches,
	}
	s.swapFn = f.SwapTable
	s.analyze = cfg.Analyze
	if s.analyze == nil {
		s.analyze = func(p *prog.Program, attack []byte) (*patch.Set, error) {
			a := &analysis.Analyzer{Coder: coder, MaxSteps: cfg.MaxSteps}
			rep, err := a.Analyze(p, attack)
			if err != nil {
				return nil, err
			}
			if rep.Patches.Len() == 0 {
				return nil, fmt.Errorf("serve: re-analysis produced no patches (warnings: %d)", len(rep.Warnings))
			}
			return rep.Patches, nil
		}
	}

	// Prepare once; every worker shares the immutable artifact (for
	// the compiled engine, the bytecode — the fleet's
	// one-reader-many-writers shape again).
	pp, err := prog.Prepare(cfg.Program, prog.Config{Coder: coder, MaxSteps: cfg.MaxSteps, Engine: cfg.Engine})
	if err != nil {
		return nil, fmt.Errorf("serve: preparing program: %w", err)
	}

	// Build every worker synchronously so New fails cleanly instead of
	// leaking goroutines on a bad config.
	for i := 0; i < cfg.Workers; i++ {
		ctx, err := f.Acquire()
		if err != nil {
			return nil, fmt.Errorf("serve: tenant context: %w", err)
		}
		it, err := pp.NewExec(ctx.Backend())
		if err != nil {
			return nil, fmt.Errorf("serve: executor: %w", err)
		}
		s.workers.Add(1)
		go s.worker(ctx, it)
	}

	s.rollout.Add(1)
	go s.rolloutWorker()
	return s, nil
}

// worker is one tenant's request loop: it owns its context and
// executor for the server's lifetime, re-points at the current sealed
// table before each request (the rollout pickup), and recycles the
// context after each one.
func (s *Server) worker(ctx *fleet.Context, it prog.Exec) {
	defer s.workers.Done()
	for j := range s.jobs {
		j.resp <- s.serveOne(ctx, it, j.input)
	}
}

// serveOne runs one request on the worker's context and recycles it.
// A run past its step budget is the request's own typed outcome; any
// other engine-level failure (a table sync error, an engine error or
// panic, a failed recycle) is an error, not a guest crash.
func (s *Server) serveOne(ctx *fleet.Context, it prog.Exec, input []byte) jobResult {
	// Pick up any rolled-out table; the request runs on this one.
	table, err := ctx.SyncTable(s.fleet)
	var r jobResult
	var res *prog.Result
	if err == nil {
		r.epoch = table.Epoch()
		res, err = runSafely(it, input)
	}
	crashed := false
	switch {
	case errors.Is(err, prog.ErrStepLimit):
		r.outcome = OutcomeStepLimit
	case err != nil:
		r.err = err
	default:
		r.output, r.outcome = res.Output, OutcomeOK
		if crashed = res.Crashed(); crashed {
			r.outcome = s.classify(ctx, res.Fault)
			if r.outcome == OutcomeWild {
				s.queueRollout(input)
			}
		}
	}
	if rerr := s.fleet.FinishRequest(ctx, crashed); rerr != nil {
		if r.err != nil {
			r.err = fmt.Errorf("%w (recycle: %v)", r.err, rerr)
		} else {
			r.err = rerr
		}
	}
	switch {
	case r.err != nil:
		s.engineErrors.Add(1)
	case r.outcome == OutcomeStepLimit:
		s.stepLimits.Add(1)
	}
	return r
}

// runSafely runs one request and turns a panic inside the executor
// into an error, so an engine bug fails one request instead of the
// process.
func runSafely(it prog.Exec, input []byte) (res *prog.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: executor panicked: %v", r)
		}
	}()
	return it.Run(input)
}

// classify decides whether a faulted request hit the heap limit, was
// contained by the defense — a deliberate policy rejection (bounds
// check, double-free abort) or a guard-page hit (the fault landed on
// ProtNone) — or escaped wild (off the mapping, or an unprotected page).
func (s *Server) classify(ctx *fleet.Context, fault error) string {
	if errors.Is(fault, mem.ErrLimit) {
		s.heapLimits.Add(1)
		return OutcomeHeapLimit
	}
	if defense.IsContainmentFault(fault) {
		s.contained.Add(1)
		return OutcomeContained
	}
	if f, ok := mem.AsFault(fault); ok {
		if prot, err := ctx.Space().ProtAt(f.Addr); err == nil && prot == mem.ProtNone {
			s.contained.Add(1)
			return OutcomeContained
		}
	}
	s.wild.Add(1)
	return OutcomeWild
}

// queueRollout queues a wild crash's request body for off-path
// re-analysis. The handler never touches the body again after the run,
// so it is queued without a copy. The enqueue never blocks the request
// path: a crash whose attack input is already queued or under analysis
// is counted as a duplicate, and a full rollout queue drops it (the
// next identical crash will queue it again).
func (s *Server) queueRollout(input []byte) {
	key := sha256.Sum256(input)
	s.pendingMu.Lock()
	if _, dup := s.pending[key]; dup {
		s.pendingMu.Unlock()
		s.bundleDups.Add(1)
		return
	}
	if len(s.pending) > rolloutQueue {
		s.pendingMu.Unlock()
		s.bundleDrops.Add(1)
		return
	}
	s.pending[key] = struct{}{}
	s.pendingMu.Unlock()

	select {
	case s.queue <- rolloutJob{input: input, key: key}:
	default:
		s.release(key)
		s.bundleDrops.Add(1)
	}
}

// release forgets a pending attack-input hash.
func (s *Server) release(key [sha256.Size]byte) {
	s.pendingMu.Lock()
	delete(s.pending, key)
	s.pendingMu.Unlock()
}

// rolloutWorker drains the rollout queue: each crashing input is
// re-analyzed under shadow memory and, when patches emerge, merged into
// the cumulative set and sealed into a new table that SwapTable
// publishes atomically. Every failure path leaves the previous table
// serving.
func (s *Server) rolloutWorker() {
	defer s.rollout.Done()
	for j := range s.queue {
		s.runRollout(j.input)
		s.release(j.key)
	}
}

func (s *Server) runRollout(attack []byte) {
	set, err := s.analyzeSafely(attack)
	if err != nil || set == nil || set.Len() == 0 {
		s.rolloutFails.Add(1)
		return
	}
	s.patchMu.Lock()
	s.patches.Merge(set)
	_, err = s.swapFn(s.patches)
	s.patchMu.Unlock()
	if err != nil {
		s.rolloutFails.Add(1)
	}
}

// analyzeSafely runs the re-analysis and turns a panic inside it (a
// Config.Analyze hook, or the shadow engine on attacker input) into an
// error, so a broken analysis fails one rollout instead of the process.
func (s *Server) analyzeSafely(attack []byte) (set *patch.Set, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: re-analysis panicked: %v", r)
		}
	}()
	return s.analyze(s.cfg.Program, attack)
}

// Stats snapshots front-end counters.
func (s *Server) Stats() Stats {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	return Stats{
		Admitted:         s.admitted.Load(),
		Rejected:         s.rejected.Load(),
		QuotaRejected:    s.quotaRejected.Load(),
		Contained:        s.contained.Load(),
		Wild:             s.wild.Load(),
		Rollouts:         s.fleet.Table().Epoch(),
		RolloutFails:     s.rolloutFails.Load(),
		BundleDrops:      s.bundleDrops.Load(),
		BundleDuplicates: s.bundleDups.Load(),
		Abandoned:        s.abandoned.Load(),
		StepLimits:       s.stepLimits.Load(),
		HeapLimits:       s.heapLimits.Load(),
		EngineErrors:     s.engineErrors.Load(),
		Draining:         draining,
	}
}

// Drain performs graceful shutdown: new requests get 503, in-flight
// requests run to completion on whichever table they started with,
// and workers and the rollout worker exit, dropping their contexts.
// Drain returns when everything has stopped; it is safe to call once.
// The HTTP listener itself is the caller's to close
// (http.Server.Shutdown), in either order.
func (s *Server) Drain() {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return
	}
	s.draining = true
	s.drainMu.Unlock()

	// In-flight handlers finish (their jobs complete on old tables)...
	s.handlers.Wait()
	// ...then workers exit...
	close(s.jobs)
	s.workers.Wait()
	// ...then the rollout queue drains: a swap racing drain is allowed
	// to complete — the table install is atomic and tableless workers
	// are already gone, so it merely becomes the table a restarted
	// fleet would inherit.
	close(s.queue)
	s.rollout.Wait()
}

// admitTenant counts one more in-flight request for name and reports
// whether it fits the per-tenant quota; an admitted request must be
// ended with releaseTenant.
func (s *Server) admitTenant(name string) bool {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	n := s.tenants[name]
	if n >= s.cfg.TenantQuota {
		return false
	}
	s.tenants[name] = n + 1
	return true
}

// releaseTenant ends one of name's in-flight requests, dropping the
// tenant's entry when it has none left.
func (s *Server) releaseTenant(name string) {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if n := s.tenants[name] - 1; n > 0 {
		s.tenants[name] = n
	} else {
		delete(s.tenants, name)
	}
}

// Handler returns the HTTP front-end:
//
//	POST /request?tenant=NAME  body = service input, reply = service output
//	GET  /metrics              JSON: fleet + front-end + telemetry
//	GET  /healthz              "ok"
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /request", s.handleRequest)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	// Drain gate: registering with the handler group must be atomic
	// with the draining check, or Drain could close s.jobs under us.
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.handlers.Add(1)
	s.drainMu.Unlock()
	defer s.handlers.Done()

	// Admission: a token per in-flight request, shed load when out.
	select {
	case s.inflight <- struct{}{}:
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "saturated", http.StatusTooManyRequests)
		return
	}
	defer func() { <-s.inflight }()

	// Per-tenant quota inside the global bound.
	name := r.URL.Query().Get("tenant")
	if name == "" {
		name = "default"
	}
	if !s.admitTenant(name) {
		s.quotaRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "tenant quota exceeded", http.StatusTooManyRequests)
		return
	}
	defer s.releaseTenant(name)

	input, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading request", http.StatusBadRequest)
		return
	}

	j := &job{input: input, resp: make(chan jobResult, 1)}
	s.admitted.Add(1)
	// s.jobs is unbuffered: the send waits for a free worker. A client
	// that disconnects meanwhile gives up its place instead of costing
	// a run nobody reads.
	select {
	case s.jobs <- j:
	case <-r.Context().Done():
		s.abandoned.Add(1)
		return
	}
	res := <-j.resp

	w.Header().Set("X-HTP-Epoch", fmt.Sprint(res.epoch))
	if res.err != nil {
		http.Error(w, res.err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-HTP-Outcome", res.outcome)
	switch res.outcome {
	case OutcomeOK:
		w.WriteHeader(http.StatusOK)
		w.Write(res.output)
	case OutcomeContained:
		// The tenant crashed cleanly; the request is lost, the server
		// is not.
		http.Error(w, "request contained by defense", http.StatusBadGateway)
	case OutcomeStepLimit:
		http.Error(w, "request exceeded its step budget", http.StatusUnprocessableEntity)
	case OutcomeHeapLimit:
		http.Error(w, "request exceeded its heap budget", http.StatusUnprocessableEntity)
	default:
		http.Error(w, "request crashed", http.StatusInternalServerError)
	}
}
