package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/campaign"
	"heaptherapy/internal/core"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
)

// campaignBase is where a run's seeds start: seed·10⁶, so runs with
// different seeds never check the same programs.
func campaignBase(seed uint64) uint64 { return seed * 1_000_000 }

// campaignWarmOffset keeps warm-up seeds clear of the measured range.
const campaignWarmOffset = 900_000

// campaignBatch checks seeds [start, start+n) with campaign.Run under
// the default oracle and nproc workers, and returns the report and each
// seed's time to generate and check in ms. A worker checks a shard's
// seeds in order, so the gap between two consecutive verdicts of one
// shard is the later seed's time; a shard's first seed has no such gap
// and is left out. With heapMB set, the batch's middle verdict takes the
// live heap into it: the workers' pooled workbenches and the programs
// in flight.
func campaignBatch(start, n uint64, t *tally, heapMB *float64) (*campaign.RunReport, []float64, error) {
	var mu sync.Mutex
	done := make(map[uint64]time.Time, n)
	rep, err := campaign.Run(campaign.RunConfig{
		Start: start, Seeds: n, Workers: nproc(),
		OnSeed: func(seed uint64, _ campaign.VulnKind, _ *campaign.Report) {
			now := time.Now()
			mu.Lock()
			done[seed] = now
			probe := heapMB != nil && uint64(len(done)) == max(1, n/2)
			mu.Unlock()
			if probe {
				*heapMB = liveHeapMB()
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	t.note(checkCampaign(rep, n))
	var lat []float64
	for seed := start + 1; seed < start+n; seed++ {
		prev, ok1 := done[seed-1]
		cur, ok2 := done[seed]
		if ok1 && ok2 && (seed-start)%uint64(rep.ShardSize) != 0 {
			lat = append(lat, ms(cur.Sub(prev)))
		}
	}
	return rep, lat, nil
}

func runCampaign(cfg *config, tr *tracer) (*outcome, error) {
	var engines []string
	for _, e := range prog.AllEngines() {
		engines = append(engines, e.String())
	}
	o := newOutcome(strings.Join(engines, ","))
	base := campaignBase(cfg.seed)
	warm := cfg.size.campaignWarm
	setups := 0
	_, setup, err := repeatSetup(cfg.size.setups, func() (struct{}, error) {
		start := base + campaignWarmOffset + uint64(setups)*warm
		setups++
		_, _, err := campaignBatch(start, warm, &o.checks, nil)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	runtime.GC()

	window := cfg.measure
	if cfg.trace {
		window /= 2
	}
	batch := cfg.size.campaignBatch
	next := base
	lat := newHist()
	var busyMs, wallMs float64
	seeds := 0
	m := newMeter(window)
	for m.running() {
		rep, l, err := campaignBatch(next, batch, &o.checks, nil)
		if err != nil {
			return nil, err
		}
		next += batch
		seeds += rep.Cases
		m.tick(rep.Cases)
		for _, v := range l {
			lat.add(v)
		}
		for _, w := range rep.WorkerStats {
			busyMs += float64(w.BusyMs)
		}
		wallMs += float64(rep.Workers) * ms(rep.Elapsed)
	}
	untraced := float64(seeds) / time.Since(m.start).Seconds()
	o.record(lat, m)
	var heapMB float64
	if _, _, err := campaignBatch(next, batch, &o.checks, &heapMB); err != nil {
		return nil, err
	}
	next += batch
	o.metrics["mem_heap_mb"] = heapMB
	if !cfg.trace {
		return o, nil
	}

	o.metrics["campaign.worker_busy_pct"] = 100 * busyMs / wallMs
	traced, err := tracedCampaign(next, batch, window, tr, &o.checks)
	if err != nil {
		return nil, err
	}
	// Throughput falls as cost rises, so the overhead is the untraced
	// rate over the traced one.
	o.metrics["trace.overhead_pct"] = overheadPct(1/untraced, 1/traced)
	return o, auditCampaign(base, cfg.size.campaignReplay, tr, &o.checks, o)
}

// tracedCampaign runs campaign.Run in batches for d, recording each
// batch as a span and marking each checked seed (RunConfig.OnSeed) with
// a zero-length span under it, and returns seeds/s. The traced
// allocator stays in auditCampaign: an oracle with an AllocatorFor
// makes every workbench fall back to the unpooled Oracle.Check, about
// twelve times slower, which would measure the fallback rather than the
// tracing.
func tracedCampaign(base, batch uint64, d time.Duration, tr *tracer, t *tally) (float64, error) {
	seeds := 0
	start := time.Now()
	for next := base; seeds == 0 || time.Since(start) < d; next += batch {
		id, began := tr.newID(), tr.now()
		rep, err := campaign.Run(campaign.RunConfig{
			Start: next, Seeds: batch, Workers: nproc(),
			OnSeed: func(uint64, campaign.VulnKind, *campaign.Report) {
				now := tr.now()
				tr.add(span{Name: "campaign.seed", Parent: id, Req: id, Start: now, End: now})
			},
		})
		if err != nil {
			return 0, err
		}
		t.note(checkCampaign(rep, batch))
		seeds += rep.Cases
		tr.add(span{ID: id, Req: id, Name: "campaign.run", Start: began, End: tr.now()})
	}
	return float64(seeds) / time.Since(start).Seconds(), nil
}

// auditCampaign replays n seeds, one at a time, through the calls a
// campaign worker makes — Generate, then the pooled Workbench.Check —
// and through the layers a check drives: the default plan and coder,
// the shadow analysis of the attack, and the whole oracle with a traced
// allocator under every boundary-tag cell (Oracle.AllocatorFor). Each
// traced oracle report must match the pooled workbench's, cell by cell.
func auditCampaign(base uint64, n int, tr *tracer, t *tally, o *outcome) error {
	var heaps []*tracedHeap
	ops := &opSet{tr: tr}
	traced := campaign.Oracle{AllocatorFor: func(kind campaign.AllocKind, space *mem.Space) (heapsim.Allocator, error) {
		if kind == campaign.AllocPool {
			return heapsim.NewPool(space)
		}
		h := &tracedHeap{space: space, ops: ops}
		heaps = append(heaps, h)
		return h, nil
	}}
	wb := campaign.NewWorkbench(campaign.Oracle{})
	for seed := base; seed < base+uint64(n); seed++ {
		req := tr.newID()
		var g *campaign.Generated
		var err error
		tr.timed("campaign.generate", req, func() { g, err = campaign.Generate(seed, campaign.GenConfig{}) })
		if err != nil {
			return err
		}
		var pooled *campaign.Report
		tr.timed("campaign.check", req, func() { pooled = wb.Check(g) })
		var sys *core.System
		tr.timed("encoding.plan", req, func() { sys, err = core.NewSystem(g.Program, core.Options{}) })
		if err != nil {
			return err
		}
		var rep *analysis.Report
		tr.timed("analysis.analyze", req, func() { rep, err = (&analysis.Analyzer{Coder: sys.Coder()}).Analyze(g.Program, g.Attack) })
		if err != nil {
			return err
		}
		o.metrics["analysis.patches"] += float64(rep.Patches.Len())
		o.metrics["encoding.instrumented_sites"] += float64(sys.Coder().Plan().NumSites())

		start := tr.now()
		got := traced.Check(g)
		tr.add(span{ID: req, Req: req, Name: "campaign.oracle", Start: start, End: tr.now(), Ops: ops.take()})
		t.note(sameVerdict(seed, pooled, got))
	}
	for _, h := range heaps {
		o.metrics["heapsim.calls"] += float64(h.calls)
	}
	return nil
}

// sameVerdict: the traced oracle's report matches the pooled one's in
// failures and, cell by cell, in output, fault, steps and cycles.
func sameVerdict(seed uint64, pooled, traced *campaign.Report) error {
	if len(pooled.Failures) != 0 || len(traced.Failures) != 0 {
		return fmt.Errorf("campaign seed %d: %d failures pooled, %d traced", seed, len(pooled.Failures), len(traced.Failures))
	}
	if len(pooled.Outcomes) != len(traced.Outcomes) {
		return fmt.Errorf("campaign seed %d: %d cells pooled, %d traced", seed, len(pooled.Outcomes), len(traced.Outcomes))
	}
	for i, a := range pooled.Outcomes {
		b := traced.Outcomes[i]
		if a.Cell != b.Cell || (a.Result == nil) != (b.Result == nil) {
			return fmt.Errorf("campaign seed %d: cell %v vs %v", seed, a.Cell, b.Cell)
		}
		if a.Result != nil {
			if err := checkReplay(fmt.Sprintf("campaign seed %d cell %v", seed, a.Cell), a.Result, b.Result); err != nil {
				return err
			}
		}
	}
	return nil
}
