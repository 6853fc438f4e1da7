package experiments

import (
	"strconv"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// Ablation sweeps the deferred-free queue quota on a UAF-heavy churn
// and reports eviction pressure, <quota>/evictions and
// <quota>/final_queue_bytes: the memory-vs-reuse-distance tradeoff the
// paper's Section IX discusses (replaying with 1/N CCID subspaces when
// the quota drains).
func Ablation(cfg Config) (*Result, error) {
	quotas := []uint64{4 << 10, 64 << 10, 1 << 20, 8 << 20}
	if cfg.Quick {
		quotas = []uint64{4 << 10, 1 << 20}
	}
	const (
		ccid    = 0x0DD
		blocks  = 2000
		blockSz = 512
	)
	m := metrics{}
	var rows [][]string
	for _, quota := range quotas {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			return nil, err
		}
		d, err := defense.New(space, defense.Config{
			QueueQuota: quota,
			Patches: patch.NewSet(patch.Patch{
				Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeUseAfterFree,
			}),
		})
		if err != nil {
			return nil, err
		}
		for i := 0; i < blocks; i++ {
			p, err := d.Malloc(ccid, blockSz)
			if err != nil {
				return nil, err
			}
			if err := d.Free(p); err != nil {
				return nil, err
			}
		}
		st := d.Stats()
		row := strconv.FormatUint(quota, 10)
		rows = append(rows, []string{
			row,
			m.count(row+"/evictions", st.QueueEvictions),
			m.count(row+"/final_queue_bytes", st.QueueBytes),
		})
	}
	text := "Ablation: deferred-free queue quota (Section IX discussion)\n" +
		table([]string{"Queue quota (B)", "Evictions", "Final queue bytes"}, rows)
	return &Result{Text: text, Metrics: m}, nil
}

// GlobalGuardBaseline compares the paper's motivation claim: guard
// pages on EVERY buffer (Electric Fence style) versus guard pages only
// on patched buffers, each measured as cycle overhead against native
// on an allocation-heavy churn (global_overhead_pct,
// targeted_overhead_pct), and the targeted policy's saving, their
// ratio (targeted_saving).
func GlobalGuardBaseline(cfg Config) (*Result, error) {
	const (
		vulnCCID = 0x77
		rounds   = 3000
	)
	run := func(patches *patch.Set) (uint64, error) {
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			return 0, err
		}
		d, err := defense.New(space, defense.Config{Patches: patches})
		if err != nil {
			return 0, err
		}
		for i := 0; i < rounds; i++ {
			// 7 "application" contexts plus 1 vulnerable one.
			for c := uint64(0); c < 8; c++ {
				ccid := 0x100 + c
				if c == 7 {
					ccid = vulnCCID
				}
				p, err := d.Malloc(ccid, 128)
				if err != nil {
					return 0, err
				}
				if err := d.Free(p); err != nil {
					return 0, err
				}
			}
		}
		return d.Cycles(), nil
	}

	base, err := run(patch.NewSet())
	if err != nil {
		return nil, err
	}
	// Targeted: only the vulnerable context gets a guard page.
	tgt, err := run(patch.NewSet(patch.Patch{
		Fn: heapsim.FnMalloc, CCID: vulnCCID, Types: patch.TypeOverflow,
	}))
	if err != nil {
		return nil, err
	}
	// Global: every context guarded.
	all := patch.NewSet()
	for c := uint64(0); c < 8; c++ {
		ccid := 0x100 + c
		if c == 7 {
			ccid = vulnCCID
		}
		all.Add(patch.Patch{Fn: heapsim.FnMalloc, CCID: ccid, Types: patch.TypeOverflow})
	}
	glob, err := run(all)
	if err != nil {
		return nil, err
	}
	global, targeted := overheadPct(base, glob), overheadPct(base, tgt)
	m := metrics{}
	text := "Guard-page policy baseline (paper motivation: per-buffer guard pages are prohibitively expensive)\n" +
		"  guard every buffer:      +" + m.cell("global_overhead_pct", "%.1f", global) + "% allocation-path cycles\n" +
		"  guard patched buffers:   +" + m.cell("targeted_overhead_pct", "%.1f", targeted) + "% allocation-path cycles\n" +
		"  targeted saving:         " + m.cell("targeted_saving", "%.1f", global/targeted) + "x\n"
	return &Result{Text: text, Metrics: m}, nil
}
