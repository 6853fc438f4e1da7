package analysis

import (
	"fmt"

	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// AnalyzePartitioned implements Section IX's answer to quota
// exhaustion: when a program's freed memory outruns the freed-block
// queue quota, the attack is replayed N times; run i defers
// deallocation only for buffers whose allocation-time CCID falls in
// subspace i (CCID mod N == i), so each run parks roughly 1/N of the
// freed bytes. Each run is one Analyze under that deferral filter;
// warnings and patches from all runs are merged, and the merged
// patches are symbolized as Analyze symbolizes its own. The execution
// summary and the leak check are the last run's: which blocks leak
// does not depend on which frees were deferred.
func (a *Analyzer) AnalyzePartitioned(p *prog.Program, attackInput []byte, n int) (*Report, error) {
	if n < 1 {
		return nil, fmt.Errorf("analysis: partition count %d, need >= 1", n)
	}
	if n == 1 {
		return a.Analyze(p, attackInput)
	}
	merged := &Report{
		Program:  p.Name,
		InputLen: len(attackInput),
		Patches:  patch.NewSet(),
	}
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		i := uint64(i)
		part := *a
		part.ShadowConfig.DeferFilter = func(ccid uint64) bool { return ccid%uint64(n) == i }
		rep, err := part.Analyze(p, attackInput)
		if err != nil {
			return nil, fmt.Errorf("analysis: partition %d: %w", i, err)
		}
		merged.Result, merged.Leaks = rep.Result, rep.Leaks
		for _, w := range rep.Warnings {
			key := w.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			merged.Warnings = append(merged.Warnings, w)
			if w.AllocFn == 0 {
				merged.Skipped++
				continue
			}
			merged.Patches.Add(w.Patch())
		}
	}
	merged.Contexts = a.decodeContexts(p, merged.Patches)
	return merged, nil
}
