// Command htp-fuzz runs the generative campaign: seeded random
// programs with injected heap vulnerabilities, each driven through
// the full differential matrix (tree-walker vs compiled engine,
// boundary-tag heap vs pool allocator, native vs shadow-analyzed vs
// defended) with the heap-invariant walker attached, and every cell
// checked against the injected ground truth.
//
// Seeds run on the sharded parallel runtime: N workers, each owning a
// pooled oracle workbench, claim contiguous seed shards and merge
// their verdicts deterministically — the report is identical at any
// worker count (modulo timing fields).
//
//	htp-fuzz -seeds 1000                    # campaign over seeds 0..999
//	htp-fuzz -seeds 100000 -workers 8       # sharded across 8 workbenches
//	htp-fuzz -start 5000 -seeds 100 -json   # JSON report on stdout
//	htp-fuzz -kinds uaf-read,double-free    # restrict vulnerability kinds
//	htp-fuzz -policy all                    # defended cells under every policy family
//	htp-fuzz -reduce                        # minimize any failing program
//	htp-fuzz -forensics out/                # write per-seed forensic bundles
//	htp-fuzz -emit-corpus testdata/campaign -seeds 20
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"heaptherapy/internal/campaign"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/prog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the machine-readable campaign summary: the merged run
// report plus the matrix configuration it ran under.
type report struct {
	Start     uint64   `json:"start"`
	Seeds     uint64   `json:"seeds"`
	Workers   int      `json:"workers"`
	ShardSize int      `json:"shard_size"`
	Kinds     []string `json:"kinds"`
	Engines   []string `json:"engines"`
	Allocs    []string `json:"allocators"`
	Policies  []string `json:"policies"`

	Cases    int                    `json:"cases"`
	ByKind   map[string]int         `json:"by_kind"`
	Failed   int                    `json:"failed"`
	Failures []campaign.Failure     `json:"failures,omitempty"`
	Reduced  []campaign.ReducedCase `json:"reduced,omitempty"`
	Stopped  bool                   `json:"stopped,omitempty"`

	Ms          int64                 `json:"duration_ms"`
	SeedsPerSec float64               `json:"seeds_per_sec"`
	PerWorker   []campaign.WorkerStat `json:"per_worker"`
}

// manifestEntry describes one emitted corpus case.
type manifestEntry struct {
	Seed     uint64 `json:"seed"`
	Kind     string `json:"kind"`
	File     string `json:"file"`
	Benign   string `json:"benign"`
	Attack   string `json:"attack"`
	Secret   string `json:"secret,omitempty"`
	Sentinel string `json:"sentinel,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("htp-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds      = fs.Uint64("seeds", 100, "number of seeds to campaign over")
		start      = fs.Uint64("start", 0, "first seed")
		kindsFlag  = fs.String("kinds", "", "comma-separated vulnerability kinds (default: all)")
		engines    = fs.String("engines", "", "comma-separated engines: tree,compiled (default: all)")
		allocs     = fs.String("allocators", "", "comma-separated allocators: heap,pool (default: all)")
		policies   = fs.String("policy", "", `comma-separated defense policy families: ht,shadowbound,mesh, or "all" (default: ht)`)
		workers    = fs.Int("workers", 0, "parallel oracle workbenches (0 = GOMAXPROCS)")
		jsonOut    = fs.Bool("json", false, "emit a JSON report on stdout")
		reduce     = fs.Bool("reduce", false, "minimize each failing program and include it in the report")
		forensics  = fs.String("forensics", "", "write a replayable bundle-<seed>.json per failing seed into this directory")
		emitCorpus = fs.String("emit-corpus", "", "write generated programs and a manifest into this directory instead of running the oracle")
		maxFail    = fs.Int("max-failures", 20, "stop after this many failing seeds (0 = never)")
		verbose    = fs.Bool("v", false, "log each seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var cfg campaign.GenConfig
	if *kindsFlag != "" {
		for _, name := range strings.Split(*kindsFlag, ",") {
			k, err := campaign.ParseKind(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			cfg.Kinds = append(cfg.Kinds, k)
		}
	}
	oracle := campaign.Oracle{}
	if *engines != "" {
		for _, name := range strings.Split(*engines, ",") {
			e, err := prog.ParseEngine(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			oracle.Engines = append(oracle.Engines, e)
		}
	}
	if *allocs != "" {
		for _, name := range strings.Split(*allocs, ",") {
			switch strings.TrimSpace(name) {
			case "heap":
				oracle.Allocators = append(oracle.Allocators, campaign.AllocHeap)
			case "pool":
				oracle.Allocators = append(oracle.Allocators, campaign.AllocPool)
			default:
				fmt.Fprintf(stderr, "unknown allocator %q (want heap or pool)\n", name)
				return 2
			}
		}
	}

	if *policies != "" {
		if strings.EqualFold(strings.TrimSpace(*policies), "all") {
			oracle.Policies = defense.AllFamilies()
		} else {
			for _, name := range strings.Split(*policies, ",") {
				f, err := defense.ParseFamily(name)
				if err != nil {
					fmt.Fprintln(stderr, err)
					return 2
				}
				oracle.Policies = append(oracle.Policies, f)
			}
		}
	}

	if *emitCorpus != "" {
		if err := emit(*emitCorpus, *start, *seeds, cfg); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d cases to %s\n", *seeds, *emitCorpus)
		return 0
	}

	rc := campaign.RunConfig{
		Start:           *start,
		Seeds:           *seeds,
		Gen:             cfg,
		Oracle:          oracle,
		Workers:         *workers,
		MaxFailingSeeds: *maxFail,
		Reduce:          *reduce,
	}
	if *verbose {
		// Workers log concurrently; the mutex keeps lines whole (their
		// interleaving across shards is inherently scheduling-order).
		var mu sync.Mutex
		rc.OnSeed = func(seed uint64, kind campaign.VulnKind, rep *campaign.Report) {
			status := "ok"
			if !rep.OK() {
				status = fmt.Sprintf("FAIL (%d)", len(rep.Failures))
			}
			mu.Lock()
			fmt.Fprintf(stderr, "seed %d %v: %s\n", seed, kind, status)
			mu.Unlock()
		}
	}

	res, err := campaign.Run(rc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if res.Stopped {
		fmt.Fprintf(stderr, "stopping after %d failing seeds\n", res.FailingSeeds)
	}
	if *forensics != "" && len(res.Bundles) > 0 {
		if err := writeBundles(*forensics, res.Bundles); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d forensic bundles to %s\n", len(res.Bundles), *forensics)
	}

	rep := &report{
		Start:       res.Start,
		Seeds:       res.Seeds,
		Workers:     res.Workers,
		ShardSize:   res.ShardSize,
		Cases:       res.Cases,
		ByKind:      res.ByKind,
		Failed:      res.FailingSeeds,
		Failures:    res.Failures,
		Reduced:     res.Reduced,
		Stopped:     res.Stopped,
		Ms:          res.ElapsedMs,
		SeedsPerSec: res.SeedsPerSec,
		PerWorker:   res.WorkerStats,
	}
	for _, k := range cfg.Kinds {
		rep.Kinds = append(rep.Kinds, k.String())
	}
	matrix := oracle.WithDefaults()
	for _, e := range matrix.Engines {
		rep.Engines = append(rep.Engines, e.String())
	}
	for _, a := range matrix.Allocators {
		rep.Allocs = append(rep.Allocs, a.String())
	}
	for _, p := range matrix.Policies {
		rep.Policies = append(rep.Policies, p.String())
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		summarize(stdout, rep)
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

func summarize(w io.Writer, rep *report) {
	fmt.Fprintf(w, "htp-fuzz: %d cases (seeds %d..%d) in %dms — %.1f seeds/sec, %d workers (shard %d)\n",
		rep.Cases, rep.Start, rep.Start+rep.Seeds-1, rep.Ms, rep.SeedsPerSec, rep.Workers, rep.ShardSize)
	if len(rep.Policies) > 1 || (len(rep.Policies) == 1 && rep.Policies[0] != "ht") {
		fmt.Fprintf(w, "  policies: %s\n", strings.Join(rep.Policies, ","))
	}
	kinds := make([]string, 0, len(rep.ByKind))
	for k := range rep.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-16s %d\n", k, rep.ByKind[k])
	}
	for _, st := range rep.PerWorker {
		fmt.Fprintf(w, "  worker %d: %d seeds over %d shards, busy %dms\n",
			st.Worker, st.Seeds, st.Shards, st.BusyMs)
	}
	if rep.Failed == 0 {
		fmt.Fprintf(w, "all %d cases passed the differential oracle\n", rep.Cases)
		return
	}
	fmt.Fprintf(w, "%d FAILING seeds, %d assertion failures:\n", rep.Failed, len(rep.Failures))
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  seed %d (%s) [%s @ %s]: %s\n", f.Seed, f.Kind, f.Class, f.Cell, f.Detail)
	}
	for _, r := range rep.Reduced {
		fmt.Fprintf(w, "reduced witness for seed %d (%s, %d statements):\n%s\n",
			r.Seed, r.Class, r.Statements, r.Source)
	}
}

// writeBundles dumps each failing seed's replayable forensic bundle as
// bundle-<seed>.json.
func writeBundles(dir string, bundles []*campaign.Bundle) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, b := range bundles {
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("bundle-%d.json", b.Seed)
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// emit writes seed-<n>.htp sources plus inputs and ground truth into
// dir as a replayable golden corpus.
func emit(dir string, start, count uint64, cfg campaign.GenConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var manifest []manifestEntry
	for seed := start; seed < start+count; seed++ {
		g, err := campaign.Generate(seed, cfg)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("seed-%d.htp", seed)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(g.Source), 0o644); err != nil {
			return err
		}
		manifest = append(manifest, manifestEntry{
			Seed:     seed,
			Kind:     g.Kind.String(),
			File:     name,
			Benign:   hex.EncodeToString(g.Benign),
			Attack:   hex.EncodeToString(g.Attack),
			Secret:   hex.EncodeToString(g.Secret),
			Sentinel: hex.EncodeToString(g.Sentinel),
		})
	}
	data, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'), 0o644)
}
