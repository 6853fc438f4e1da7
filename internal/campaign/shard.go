package campaign

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/telemetry"
)

// RunConfig configures a sharded campaign run (see Run).
type RunConfig struct {
	// Start is the first seed; Seeds is how many to campaign over.
	Start uint64
	Seeds uint64
	// Gen tunes generation, Oracle the differential matrix.
	Gen    GenConfig
	Oracle Oracle
	// Workers is the number of worker goroutines, each owning one
	// pooled Workbench (0 = GOMAXPROCS).
	Workers int
	// MaxFailingSeeds stops the campaign promptly once this many seeds
	// have failed the oracle (0 = never stop). A seed with several
	// assertion failures counts once.
	MaxFailingSeeds int
	// Reduce minimizes each failing program to a class-preserving
	// witness (using the worker's pooled oracle for the predicate).
	Reduce bool
	// OnSeed, when set, observes every checked seed. It is called
	// concurrently from worker goroutines and must be safe for that.
	OnSeed func(seed uint64, kind VulnKind, rep *Report)
}

// WorkerStat is one worker's share of a run.
type WorkerStat struct {
	Worker int    `json:"worker"`
	Seeds  uint64 `json:"seeds"`
	Shards int    `json:"shards"`
	BusyMs int64  `json:"busy_ms"`
}

// ReducedCase is a minimized failing witness.
type ReducedCase struct {
	Seed       uint64 `json:"seed"`
	Kind       string `json:"kind"`
	Class      string `json:"class"`
	Statements int    `json:"statements"`
	Source     string `json:"source"`
}

// CellTrace is the telemetry event-ring trace of one defended cell:
// the most recent {allocation function, CCID, site} events the cell's
// flight recorder retained.
type CellTrace struct {
	Cell   string            `json:"cell"`
	Events []telemetry.Event `json:"events"`
}

// Bundle is the replayable forensic record of one failing seed:
// everything needed to reproduce the failure outside the campaign
// (source, both inputs, the planted ground truth) plus the assertion
// failures, the minimized witness when reduction ran, and the defended
// cells' event-ring traces.
type Bundle struct {
	Seed     uint64       `json:"seed"`
	Kind     string       `json:"kind"`
	Source   string       `json:"source"`
	Benign   string       `json:"benign"`
	Attack   string       `json:"attack"`
	Secret   string       `json:"secret,omitempty"`
	Sentinel string       `json:"sentinel,omitempty"`
	Failures []Failure    `json:"failures"`
	Reduced  *ReducedCase `json:"reduced,omitempty"`
	Traces   []CellTrace  `json:"traces,omitempty"`
}

// RunReport is the merged verdict of a sharded campaign run. Merging
// is deterministic: shards are contiguous ascending seed ranges and
// per-shard accumulators are concatenated in shard order, so a run to
// completion yields the same report at any worker count — only the
// timing fields (Elapsed, SeedsPerSec, WorkerStats) vary.
type RunReport struct {
	Start     uint64 `json:"start"`
	Seeds     uint64 `json:"seeds"`
	Workers   int    `json:"workers"`
	ShardSize int    `json:"shard_size"`

	Cases        int            `json:"cases"`
	ByKind       map[string]int `json:"by_kind"`
	FailingSeeds int            `json:"failing_seeds"`
	Failures     []Failure      `json:"failures,omitempty"`
	Reduced      []ReducedCase  `json:"reduced,omitempty"`
	Bundles      []*Bundle      `json:"bundles,omitempty"`
	// Stopped reports that MaxFailingSeeds cut the run short; Cases
	// then counts only the seeds actually checked.
	Stopped bool `json:"stopped,omitempty"`

	WorkerStats []WorkerStat  `json:"per_worker"`
	Elapsed     time.Duration `json:"-"`
	ElapsedMs   int64         `json:"duration_ms"`
	SeedsPerSec float64       `json:"seeds_per_sec"`
}

// shardSpan is one work unit: the seed range [lo, hi).
type shardSpan struct{ lo, hi uint64 }

// shardResult is one shard's accumulator, merged in shard order.
type shardResult struct {
	cases   int
	byKind  map[string]int
	failing int
	fails   []Failure
	reduced []ReducedCase
	bundles []*Bundle
}

// Run executes the campaign over [Start, Start+Seeds) on a pool of
// workers, each owning one pooled Workbench, and merges the per-shard
// verdicts deterministically. See RunConfig for the knobs and
// RunReport for the determinism contract; TestParallelMatchesSequential
// and TestWorkbenchBitIdentical pin both.
//
// Generation errors are fatal: the run stops promptly and Run returns
// the error (generated programs failing to build means the campaign
// itself is broken, not the system under test).
func Run(cfg RunConfig) (*RunReport, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The seeds-per-shard work unit: enough shards for ~8 claims per
	// worker, clamped to [16, 4096].
	shardSize := cfg.Seeds / (8 * uint64(workers))
	if shardSize < 16 {
		shardSize = 16
	} else if shardSize > 4096 {
		shardSize = 4096
	}

	var shards []shardSpan
	for lo := cfg.Start; lo < cfg.Start+cfg.Seeds; lo += shardSize {
		hi := lo + shardSize
		if hi > cfg.Start+cfg.Seeds {
			hi = cfg.Start + cfg.Seeds
		}
		shards = append(shards, shardSpan{lo: lo, hi: hi})
	}

	var (
		next    atomic.Uint64 // claim cursor over shards, in seed order
		stop    atomic.Bool   // prompt cross-worker cancellation
		failing atomic.Int64  // failing seeds, one per seed
		genMu   sync.Mutex
		genErr  error
	)
	results := make([]*shardResult, len(shards))
	stats := make([]WorkerStat, workers)

	began := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			wb := NewWorkbench(cfg.Oracle)
			st := &stats[worker]
			st.Worker = worker
			for !stop.Load() {
				idx := int(next.Add(1) - 1)
				if idx >= len(shards) {
					return
				}
				sh := shards[idx]
				st.Shards++
				shardBegan := time.Now()
				acc := &shardResult{byKind: map[string]int{}}
				results[idx] = acc
				for seed := sh.lo; seed < sh.hi && !stop.Load(); seed++ {
					g, err := Generate(seed, cfg.Gen)
					if err != nil {
						genMu.Lock()
						if genErr == nil {
							genErr = fmt.Errorf("campaign: seed %d: %w", seed, err)
						}
						genMu.Unlock()
						stop.Store(true)
						break
					}
					rep := wb.Check(g)
					acc.cases++
					acc.byKind[g.Kind.String()]++
					st.Seeds++
					if cfg.OnSeed != nil {
						cfg.OnSeed(seed, g.Kind, rep)
					}
					if rep.OK() {
						continue
					}
					acc.failing++
					acc.fails = append(acc.fails, rep.Failures...)
					var reduced *ReducedCase
					if cfg.Reduce {
						rc := MinimizeFailure(g, rep, wb.Check)
						acc.reduced = append(acc.reduced, rc)
						reduced = &rc
					}
					acc.bundles = append(acc.bundles, buildBundle(g, rep, reduced))
					if n := failing.Add(1); cfg.MaxFailingSeeds > 0 && n >= int64(cfg.MaxFailingSeeds) {
						stop.Store(true)
					}
				}
				st.BusyMs += time.Since(shardBegan).Milliseconds()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(began)

	if genErr != nil {
		return nil, genErr
	}

	rep := &RunReport{
		Start:     cfg.Start,
		Seeds:     cfg.Seeds,
		Workers:   workers,
		ShardSize: int(shardSize),
		ByKind:    map[string]int{},
		Stopped:   stop.Load(),
	}
	for _, acc := range results {
		if acc == nil {
			continue // shard never claimed (early stop)
		}
		rep.Cases += acc.cases
		for k, n := range acc.byKind {
			rep.ByKind[k] += n
		}
		rep.FailingSeeds += acc.failing
		rep.Failures = append(rep.Failures, acc.fails...)
		rep.Reduced = append(rep.Reduced, acc.reduced...)
		rep.Bundles = append(rep.Bundles, acc.bundles...)
	}
	rep.WorkerStats = stats
	rep.Elapsed = elapsed
	rep.ElapsedMs = elapsed.Milliseconds()
	if s := elapsed.Seconds(); s > 0 {
		rep.SeedsPerSec = float64(rep.Cases) / s
	}
	return rep, nil
}

// MinimizeFailure shrinks a failing case to a minimal witness whose
// verdict keeps the same leading failure class. check is the oracle
// predicate — Oracle.Check, or a pooled Workbench.Check when the
// reduction loop should not pay construction costs.
func MinimizeFailure(g *Generated, res *Report, check func(*Generated) *Report) ReducedCase {
	class := res.Failures[0].Class
	stillFails := func(p *prog.Program) bool {
		cand := *g
		cand.Program = p
		r := check(&cand)
		for _, f := range r.Failures {
			if f.Class == class {
				return true
			}
		}
		return false
	}
	reduced := Reduce(g.Program, stillFails, 0)
	return ReducedCase{
		Seed:       g.Seed,
		Kind:       g.Kind.String(),
		Class:      class,
		Statements: CountStatements(reduced),
		Source:     progtext.Print(reduced),
	}
}

// buildBundle packages one failing seed's forensic record from the
// report the oracle already produced — no rerun. Traces come from the
// defended cells named in the failures, plus the first defended attack
// cell per allocator (engines are signature-identical, so one trace
// per allocator represents them all).
func buildBundle(g *Generated, rep *Report, reduced *ReducedCase) *Bundle {
	b := &Bundle{
		Seed:     g.Seed,
		Kind:     g.Kind.String(),
		Source:   g.Source,
		Benign:   hex.EncodeToString(g.Benign),
		Attack:   hex.EncodeToString(g.Attack),
		Secret:   hex.EncodeToString(g.Secret),
		Sentinel: hex.EncodeToString(g.Sentinel),
		Failures: rep.Failures,
		Reduced:  reduced,
	}
	inFailures := map[string]bool{}
	for _, f := range rep.Failures {
		if f.Cell != "" {
			inFailures[f.Cell] = true
		}
	}
	seen := map[string]bool{}
	var firstAttack [2]bool
	for _, out := range rep.Outcomes {
		if out.Cell.Mode != ModeDefended || out.Telemetry == nil {
			continue
		}
		name := out.Cell.String()
		want := inFailures[name]
		if out.Cell.Attack && !firstAttack[out.Cell.Alloc] {
			firstAttack[out.Cell.Alloc] = true
			want = true
		}
		if !want || seen[name] {
			continue
		}
		seen[name] = true
		b.Traces = append(b.Traces, CellTrace{Cell: name, Events: out.Telemetry.Events})
	}
	return b
}
