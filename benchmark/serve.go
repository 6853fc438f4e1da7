package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/fleet"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/serve"
	"heaptherapy/internal/workload"
)

// immunityLimit is how long a rollout episode may take from the first
// crash request to the first contained reply.
const immunityLimit = 2 * time.Second

// serveRig is a loopback HTTP server in front of the serve handler of
// the moment, and one client (one keep-alive connection) per load
// role. The listener lives for the whole run; rollout episodes swap
// the handler under it.
type serveRig struct {
	hs      *http.Server
	done    chan struct{}
	handler atomic.Pointer[http.Handler]
	url     string
	clients []*http.Client
}

func newServeRig(conns int) (*serveRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	r := &serveRig{done: make(chan struct{}), url: "http://" + ln.Addr().String() + "/request"}
	r.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		(*r.handler.Load()).ServeHTTP(w, req)
	})}
	go func() {
		defer close(r.done)
		r.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	for i := 0; i < conns; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return r, nil
}

func (r *serveRig) setHandler(h http.Handler) { r.handler.Store(&h) }

// close stops the server and waits for its accept loop to exit.
func (r *serveRig) close() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	r.hs.Close()
	<-r.done
}

// post sends one request on client c and returns the reply and the
// client-side latency. With tr set the request is an http.request span
// whose ID travels to the handler wrapper.
func (r *serveRig) post(c int, body []byte, tr *tracer) (reply, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, 0, err
	}
	id := tr.newID()
	if tr != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	startNs := tr.now()
	start := time.Now()
	resp, err := r.clients[c].Do(req)
	if err != nil {
		return reply{}, 0, fmt.Errorf("request: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return reply{}, 0, fmt.Errorf("reading reply: %w", err)
	}
	tr.add(span{ID: id, Req: id, Name: "http.request", Start: startNs, End: tr.now()})
	return reply{status: resp.StatusCode, outcome: resp.Header.Get("X-HTP-Outcome"), body: b}, took, nil
}

// request is one generated service request.
type request struct {
	attack bool
	crash  bool // a crash attack (the other attack is a leak)
	n      int  // reply bytes asked for by a benign request
	body   []byte
}

// reqStream is the seeded serve traffic: benign requests for 1..1024
// reply bytes and, with probability attackPct/100, an attack (a crash
// or a leak request, equally likely).
type reqStream struct {
	rng       *rand.Rand
	svc       *workload.Service
	attackPct int
}

func newReqStream(seed uint64, svc *workload.Service, attackPct int) *reqStream {
	return &reqStream{rng: rand.New(rand.NewSource(int64(seed))), svc: svc, attackPct: attackPct}
}

func (s *reqStream) next() request {
	if s.attackPct > 0 && s.rng.Intn(100) < s.attackPct {
		if s.rng.Intn(2) == 0 {
			return request{attack: true, crash: true, body: s.svc.CrashRequest()}
		}
		return request{attack: true, body: s.svc.LeakRequest()}
	}
	n := 1 + s.rng.Intn(int(s.svc.BufSize))
	return request{n: n, body: workload.Request(uint64(n))}
}

// checkServed applies every reply check of a service patched from the
// crash request. A leak request may be answered (the overread stays in
// the guard page's alignment pad) but must not leak.
func checkServed(req request, r reply, secret []byte) error {
	switch err := checkNoSecret(r, secret); {
	case err != nil:
		return err
	case req.crash:
		return checkContained(r)
	case req.attack:
		return nil
	}
	return checkBenign(req.n, r)
}

// service is the vulnerable nginx stand-in with its default coder.
type service struct {
	svc   *workload.Service
	p     *prog.Program
	coder *encoding.Coder
}

func newService(tr *tracer) (*service, error) {
	svc := workload.Nginx()
	p, err := svc.VulnerableProgram()
	if err != nil {
		return nil, err
	}
	coder, err := newCoder(p, tr)
	if err != nil {
		return nil, err
	}
	return &service{svc: svc, p: p, coder: coder}, nil
}

// analyze is serve's default re-analysis (shadow replay of the crashing
// input) as an analysis.analyze span under parent.
func (s *service) analyze(attack []byte, tr *tracer, parent uint64) (*patch.Set, error) {
	var rep *analysis.Report
	var err error
	tr.timed("analysis.analyze", parent, func() { rep, err = (&analysis.Analyzer{Coder: s.coder}).Analyze(s.p, attack) })
	if err != nil {
		return nil, err
	}
	if rep.Patches.Len() == 0 {
		return nil, fmt.Errorf("re-analysis produced no patches (warnings: %d)", len(rep.Warnings))
	}
	return rep.Patches, nil
}

// newServer starts the front-end with the library defaults and nproc
// workers, as a serve.new span.
func (s *service) newServer(patches *patch.Set, analyze func(*prog.Program, []byte) (*patch.Set, error), tr *tracer, parent uint64) (*serve.Server, error) {
	var srv *serve.Server
	var err error
	tr.timed("serve.new", parent, func() {
		srv, err = serve.New(serve.Config{
			Program:      s.p,
			Coder:        s.coder,
			BenignSample: s.svc.BenignRequest(),
			Workers:      nproc(),
			Patches:      patches,
			Analyze:      analyze,
		})
	})
	return srv, err
}

// steady is serve-steady's state: a pre-patched server on a loopback
// listener with one client connection.
type steady struct {
	*service
	patches *patch.Set
	srv     *serve.Server
	rig     *serveRig
}

func (s *steady) teardown() {
	s.rig.close()
	s.srv.Drain()
}

// load runs the closed loop on the rig's connection for d, checks every
// reply, and returns the benign latencies in ms and the requests' meter.
func (s *steady) load(d time.Duration, stream *reqStream, tr *tracer, t *tally, o *outcome) (*hist, *meter) {
	secret := s.svc.Secret()
	lat := newHist()
	attacks := 0
	m := newMeter(d)
	for m.running() {
		req := stream.next()
		r, took, err := s.rig.post(0, req.body, tr)
		t.note(firstErr(err, checkServed(req, r, secret)))
		m.tick(1)
		if req.attack {
			attacks++
		} else if err == nil {
			lat.add(ms(took))
		}
	}
	o.metrics["loadgen.requests"] += float64(m.ticks)
	o.metrics["loadgen.attack_requests"] += float64(attacks)
	return lat, m
}

func runServeSteady(cfg *config, tr *tracer) (*outcome, error) {
	o := newOutcome(serve.Config{}.Engine.String())
	st, setup, err := repeatSetup(cfg.size.setups, func() (*steady, error) {
		svc, err := newService(tr)
		if err != nil {
			return nil, err
		}
		// Pre-patch from the crash request, as an operator would after
		// the first incident.
		patches, err := svc.analyze(svc.svc.CrashRequest(), tr, 0)
		if err != nil {
			return nil, err
		}
		srv, err := svc.newServer(patches, nil, tr, 0)
		if err != nil {
			return nil, err
		}
		rig, err := newServeRig(1)
		if err != nil {
			srv.Drain()
			return nil, err
		}
		rig.setHandler(srv.Handler())
		s := &steady{service: svc, patches: patches, srv: srv, rig: rig}
		warm := newReqStream(cfg.seed^0x5eed, svc.svc, 1)
		secret := svc.svc.Secret()
		for i := 0; i < cfg.size.serveWarm; i++ {
			req := warm.next()
			r, _, err := rig.post(0, req.body, nil)
			if err = firstErr(err, checkServed(req, r, secret)); err != nil {
				s.teardown()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return s, nil
	}, (*steady).teardown)
	if err != nil {
		return nil, err
	}
	defer st.teardown()
	o.metrics["setup_s"] = setup

	stream := newReqStream(cfg.seed, st.svc, 1)
	runtime.GC()
	window := cfg.measure
	if cfg.trace {
		window /= 2
	}
	untraced, m := st.load(window, stream, nil, &o.checks, o)
	o.record(untraced, m)
	o.metrics["mem_heap_mb"] = liveHeapMB() // the serving server and its workers' contexts
	if untraced.n == 0 {
		o.checks.note(fmt.Errorf("no benign request completed"))
	}
	if !cfg.trace {
		return o, nil
	}

	st.rig.setHandler(tracedHandler{next: st.srv.Handler(), tr: tr})
	traced, _ := st.load(window, stream, tr, &o.checks, o)
	st.rig.setHandler(st.srv.Handler())
	o.metrics["trace.overhead_pct"] = overheadPct(untraced.quantile(0.5), traced.quantile(0.5))
	traced.merge(untraced)
	o.metrics["loadgen.benign_p50_us"] = 1000 * traced.quantile(0.5)
	o.metrics["loadgen.benign_p99_us"] = 1000 * traced.quantile(0.99)
	stats := st.srv.Stats()
	o.metrics["serve.rejected"] = float64(stats.Rejected + stats.QuotaRejected)
	o.metrics["serve.bundle_drops"] = float64(stats.BundleDrops)
	o.metrics["analysis.patches"] = float64(st.patches.Len())
	o.metrics["encoding.instrumented_sites"] = float64(st.coder.Plan().NumSites())

	// Replay the start of the request stream through the worker's public
	// sequence to break the request down by layer.
	replay := newReqStream(cfg.seed, st.svc, 1)
	var inputs [][]byte
	for i := 0; i < cfg.size.serveReplay; i++ {
		inputs = append(inputs, replay.next().body)
	}
	if err := replayFleet(st.service, st.patches, inputs, nil, tr, &o.checks, o); err != nil {
		return nil, err
	}
	return o, nil
}

// fleetWorker replays requests through the public sequence a serve
// worker runs: fleet.Acquire, then per request Context.SyncTable, the
// executor's Run over Context.Backend(), and FinishRequest. With tr set
// every seam is wrapped and timed.
type fleetWorker struct {
	f   *fleet.Fleet
	ctx *fleet.Context
	ex  prog.Exec
	tr  *tracer
	ops *opSet
}

func newFleetWorker(s *service, patches *patch.Set, tr *tracer, parent uint64) (*fleetWorker, error) {
	if patches == nil {
		patches = patch.NewSet()
	}
	f := fleet.New(fleet.Config{Workers: nproc(), Defended: true, Patches: patches})
	ctx, err := f.Acquire()
	if err != nil {
		return nil, err
	}
	w := &fleetWorker{f: f, ctx: ctx, tr: tr}
	backend := ctx.Backend()
	if tr != nil {
		w.ops = &opSet{tr: tr}
		if backend, err = newTracedBackend(backend, w.ops); err != nil {
			return nil, err
		}
	}
	w.ex, err = timedExec(s.p, prog.Config{Backend: backend, Coder: s.coder}, tr, parent)
	return w, err
}

// timedExec is prog.NewExec as a prog.new_exec span.
func timedExec(p *prog.Program, pcfg prog.Config, tr *tracer, parent uint64) (prog.Exec, error) {
	var ex prog.Exec
	var err error
	tr.timed("prog.new_exec", parent, func() { ex, err = prog.NewExec(p, pcfg) })
	return ex, err
}

// serveOne runs one request and reports whether a crash was contained
// (classified before FinishRequest recycles the space, as serve does).
func (w *fleetWorker) serveOne(input []byte) (*prog.Result, bool, error) {
	req, start := w.tr.newID(), w.tr.now()
	w.tr.timed("fleet.sync", req, func() { w.ctx.SyncTable(w.f) })
	res, err := runSpan(w.ex, input, w.tr, w.ops, req)
	if err != nil {
		return nil, false, err
	}
	contained := res.Crashed() && isContained(w.ctx.Space(), res.Fault)
	w.tr.timed("fleet.finish", req, func() { err = w.f.FinishRequest(w.ctx, res.Crashed()) })
	w.tr.add(span{ID: req, Req: req, Name: "replay.request", Start: start, End: w.tr.now()})
	return res, contained, err
}

func (w *fleetWorker) swap(patches *patch.Set, parent uint64) error {
	var err error
	w.tr.timed("fleet.swap", parent, func() { _, err = w.f.SwapTable(patches) })
	return err
}

func (w *fleetWorker) release() { w.f.Release(w.ctx) }

// runSpan runs ex as a prog.run span carrying its steps and the
// operations its backend performed.
func runSpan(ex prog.Exec, input []byte, tr *tracer, ops *opSet, parent uint64) (*prog.Result, error) {
	start := tr.now()
	res, err := ex.Run(input)
	sp := span{Name: "prog.run", Parent: parent, Req: parent, Start: start, End: tr.now(), Ops: ops.take()}
	if res != nil {
		sp.Steps = res.Steps
	}
	tr.add(sp)
	return res, err
}

// isContained is serve's classification: a policy rejection, or a fault
// on a guard page.
func isContained(space *mem.Space, fault error) bool {
	if defense.IsContainmentFault(fault) {
		return true
	}
	if f, ok := mem.AsFault(fault); ok {
		prot, err := space.ProtAt(f.Addr)
		return err == nil && prot == mem.ProtNone
	}
	return false
}

// replayFleet serves inputs through an untraced and a traced fleet
// worker side by side and checks every result bit-identical. When
// swapTo is set, the first crashing input is followed by a SwapTable to
// it and re-sent, which must then be contained (a rollout's pickup).
func replayFleet(s *service, patches *patch.Set, inputs [][]byte, swapTo *patch.Set, tr *tracer, t *tally, o *outcome) error {
	root := tr.newID()
	plain, err := newFleetWorker(s, patches, nil, 0)
	if err != nil {
		return err
	}
	defer plain.release()
	traced, err := newFleetWorker(s, patches, tr, root)
	if err != nil {
		return err
	}
	defer traced.release()

	serveBoth := func(i int, input []byte) (bool, error) {
		a, ca, err := plain.serveOne(input)
		if err != nil {
			return false, err
		}
		b, cb, err := traced.serveOne(input)
		if err != nil {
			return false, err
		}
		t.note(firstErr(checkReplay(fmt.Sprintf("fleet replay request %d", i), a, b), boolMismatch(ca, cb)))
		o.metrics["prog.steps"] += float64(b.Steps)
		o.metrics["prog.interp_cycles"] += float64(b.InterpCycles)
		return a.Crashed() && !ca, nil
	}
	for i, input := range inputs {
		wild, err := serveBoth(i, input)
		if err != nil {
			return err
		}
		if !wild || swapTo == nil {
			continue
		}
		if err := plain.swap(swapTo, 0); err != nil {
			return err
		}
		if err := traced.swap(swapTo, root); err != nil {
			return err
		}
		swapTo = nil
		if wild, err = serveBoth(i, input); err != nil {
			return err
		}
		if wild {
			t.note(fmt.Errorf("fleet replay: crash not contained after SwapTable"))
		}
	}
	stats := traced.f.Stats()
	o.metrics["fleet.contexts_built"] += float64(stats.ContextsBuilt)
	o.metrics["fleet.resets"] += float64(stats.Resets)
	addDefenseStats(o, stats.Defense)
	return nil
}

func boolMismatch(untraced, traced bool) error {
	if untraced != traced {
		return fmt.Errorf("traced containment %v, untraced %v", traced, untraced)
	}
	return nil
}

// rollout is serve-rollout's state: the service and a loopback rig with
// a benign client and an attacker client.
type rollout struct {
	*service
	rig    *serveRig
	benign *reqStream
	gap    time.Duration
}

// episode records one rollout for the report.
type episode struct {
	immunity  time.Duration
	firstSent time.Time
	contained time.Time
	// analyzeStart and analyzeEnd time the first Analyze call of a
	// traced episode.
	analyzeStart, analyzeEnd time.Time
}

// analyzeProbe wraps serve's default analyzer at the Analyze seam,
// recording each call as a span and the first call's times per episode.
type analyzeProbe struct {
	s          *service
	tr         *tracer
	mu         sync.Mutex
	episode    uint64
	start, end time.Time // the episode's first call
	// With takeHeap, the first call takes the live heap into heapMB once
	// its analysis is done: the serving server, its workers' contexts and
	// the new patches, with no other analysis running, since serve
	// analyzes one crash bundle at a time.
	takeHeap bool
	heapMB   float64
}

func (a *analyzeProbe) analyze(p *prog.Program, attack []byte) (*patch.Set, error) {
	start := time.Now()
	a.mu.Lock()
	ep := a.episode
	a.mu.Unlock()
	set, err := a.s.analyze(attack, a.tr, ep)
	a.mu.Lock()
	first := a.start.IsZero()
	if first {
		a.start, a.end = start, time.Now()
	}
	a.mu.Unlock()
	if first && a.takeHeap {
		mb := liveHeapMB()
		a.mu.Lock()
		a.heapMB = mb
		a.mu.Unlock()
	}
	return set, err
}

func (a *analyzeProbe) begin(ep uint64) {
	a.mu.Lock()
	a.episode, a.start, a.end = ep, time.Time{}, time.Time{}
	a.mu.Unlock()
}

func (a *analyzeProbe) times() (time.Time, time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.start, a.end
}

func (a *analyzeProbe) heap() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.heapMB
}

// run is one episode: a fresh unpatched server, one benign closed-loop
// connection, and an attacker that sends the crash request and re-sends
// it on every reply until a reply comes back contained. The benign
// latencies go to benign.
func (r *rollout) run(tr *tracer, probe *analyzeProbe, benign *hist, t *tally, o *outcome) (episode, error) {
	var ep episode
	id := tr.newID()
	var analyze func(*prog.Program, []byte) (*patch.Set, error)
	if probe != nil {
		probe.begin(id)
		analyze = probe.analyze
	}
	srv, err := r.newServer(nil, analyze, tr, id)
	if err != nil {
		return ep, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tracedHandler{next: h, tr: tr}
	}
	r.rig.setHandler(h)
	secret := r.svc.Secret()

	stop := make(chan struct{})
	var bt tally
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req := r.benign.next()
			rep, took, err := r.rig.post(0, req.body, tr)
			bt.note(firstErr(err, checkServed(req, rep, secret)))
			if err == nil {
				benign.add(ms(took))
			}
		}
	}()

	time.Sleep(r.gap)
	ep.firstSent = time.Now()
	immune := false
	for !immune && time.Since(ep.firstSent) < immunityLimit {
		rep, _, err := r.rig.post(1, r.svc.CrashRequest(), tr)
		o.metrics["loadgen.attack_requests"]++
		if err == nil {
			err = checkNoSecret(rep, secret)
		}
		if err != nil {
			t.note(err)
			break
		}
		immune = rep.outcome == serve.OutcomeContained
	}
	ep.contained = time.Now()
	ep.immunity = ep.contained.Sub(ep.firstSent)
	if probe != nil {
		ep.analyzeStart, ep.analyzeEnd = probe.times()
	}
	time.Sleep(r.gap)
	close(stop)
	wg.Wait()
	srv.Drain()

	t.note(checkImmunity(immune, ep.immunity, immunityLimit))
	t.add(bt)
	o.metrics["loadgen.requests"] += float64(bt.attempted)
	st := srv.Stats()
	o.metrics["serve.rejected"] += float64(st.Rejected + st.QuotaRejected)
	o.metrics["serve.bundle_drops"] += float64(st.BundleDrops)
	if st.Rollouts == 0 || st.RolloutFails != 0 {
		t.note(fmt.Errorf("episode: %d rollouts, %d failed", st.Rollouts, st.RolloutFails))
	}
	return ep, nil
}

// rollouts is a window of episodes: their times to immunity and benign
// latencies, and in a traced window each episode's wait for Analyze and
// pickup after it, in ms.
type rollouts struct {
	imm, benign  *hist
	wait, pickup []float64
}

// episodes runs episodes until d has passed (at least one).
func (r *rollout) episodes(d time.Duration, tr *tracer, probe *analyzeProbe, t *tally, o *outcome) (*rollouts, *meter, error) {
	rs := &rollouts{imm: newHist(), benign: newHist()}
	m := newMeter(d)
	for m.running() {
		ep, err := r.run(tr, probe, rs.benign, t, o)
		if err != nil {
			return nil, nil, err
		}
		rs.imm.add(ms(ep.immunity))
		if !ep.analyzeStart.IsZero() {
			rs.wait = append(rs.wait, ms(ep.analyzeStart.Sub(ep.firstSent)))
			rs.pickup = append(rs.pickup, ms(ep.contained.Sub(ep.analyzeEnd)))
		}
		m.tick(1)
	}
	return rs, m, nil
}

func runServeRollout(cfg *config, tr *tracer) (*outcome, error) {
	o := newOutcome(serve.Config{}.Engine.String())
	warmTally := &tally{}
	r, setup, err := repeatSetup(cfg.size.setups, func() (*rollout, error) {
		svc, err := newService(tr)
		if err != nil {
			return nil, err
		}
		rig, err := newServeRig(2)
		if err != nil {
			return nil, err
		}
		r := &rollout{service: svc, rig: rig, benign: newReqStream(cfg.seed^0x5eed, svc.svc, 0), gap: cfg.size.rolloutGap}
		scratch, benign := newOutcome(""), newHist()
		for i := 0; i < cfg.size.rolloutWarm; i++ {
			if _, err := r.run(nil, nil, benign, warmTally, scratch); err != nil {
				rig.close()
				return nil, err
			}
		}
		if warmTally.failed > 0 {
			rig.close()
			return nil, fmt.Errorf("warm-up: %s", warmTally.msgs[0])
		}
		return r, nil
	}, func(r *rollout) { r.rig.close() })
	if err != nil {
		return nil, err
	}
	defer r.rig.close()
	o.metrics["setup_s"] = setup
	r.benign = newReqStream(cfg.seed, r.svc, 0)
	runtime.GC()

	window := cfg.measure
	if cfg.trace {
		window /= 2
	}
	plain, m, err := r.episodes(window, nil, nil, &o.checks, o)
	if err != nil {
		return nil, err
	}
	o.record(plain.imm, m)
	heapProbe := &analyzeProbe{s: r.service, takeHeap: true}
	if _, err := r.run(nil, heapProbe, newHist(), &o.checks, o); err != nil {
		return nil, err
	}
	o.metrics["mem_heap_mb"] = heapProbe.heap()
	if !cfg.trace {
		return o, nil
	}

	probe := &analyzeProbe{s: r.service, tr: tr}
	traced, _, err := r.episodes(window, tr, probe, &o.checks, o)
	if err != nil {
		return nil, err
	}
	o.metrics["trace.overhead_pct"] = overheadPct(plain.imm.quantile(0.5), traced.imm.quantile(0.5))
	traced.benign.merge(plain.benign)
	o.metrics["loadgen.benign_p50_us"] = 1000 * traced.benign.quantile(0.5)
	o.metrics["loadgen.benign_p99_us"] = 1000 * traced.benign.quantile(0.99)
	o.samples["loadgen.benign_p99_us"] = traced.benign.n
	o.metrics["serve.rollout_wait_ms_p50"] = median(traced.wait)
	o.metrics["serve.pickup_ms_p50"] = median(traced.pickup)
	o.samples["serve.rollout_wait_ms_p50"] = len(traced.wait)
	o.samples["serve.pickup_ms_p50"] = len(traced.pickup)
	o.metrics["encoding.instrumented_sites"] = float64(r.coder.Plan().NumSites())

	// Replay episodes through the fleet: benign traffic, the crash (wild
	// on the unpatched table), SwapTable to the analyzed patches, and the
	// crash again (contained).
	swapTo, err := r.analyze(r.svc.CrashRequest(), tr, 0)
	if err != nil {
		return nil, err
	}
	o.metrics["analysis.patches"] = float64(swapTo.Len())
	stream := newReqStream(cfg.seed, r.svc, 0)
	for i := 0; i < cfg.size.rolloutReplay; i++ {
		var inputs [][]byte
		for j := 0; j < 10; j++ {
			inputs = append(inputs, stream.next().body)
		}
		inputs = append(inputs, r.svc.CrashRequest())
		if err := replayFleet(r.service, nil, inputs, swapTo, tr, &o.checks, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}
