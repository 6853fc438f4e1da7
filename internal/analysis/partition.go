package analysis

import (
	"fmt"

	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/shadow"
)

// AnalyzePartitioned implements Section IX's answer to quota
// exhaustion: when a program's freed memory outruns the freed-block
// queue quota, the attack is replayed N times; run i defers
// deallocation only for buffers whose allocation-time CCID falls in
// subspace i (CCID mod N == i), so each run parks roughly 1/N of the
// freed bytes. Warnings and patches from all runs are merged.
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
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			return nil, fmt.Errorf("analysis: creating space: %w", err)
		}
		cfg := a.ShadowConfig
		cfg.DeferFilter = func(ccid uint64) bool { return ccid%uint64(n) == i }
		backend, err := shadow.New(space, cfg)
		if err != nil {
			return nil, fmt.Errorf("analysis: creating shadow heap: %w", err)
		}
		it, err := prog.NewExec(p, prog.Config{
			Backend:  backend,
			Coder:    a.Coder,
			MaxSteps: a.MaxSteps,
			Engine:   a.Engine,
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: building interpreter: %w", err)
		}
		res, err := it.Run(attackInput)
		if err != nil {
			return nil, fmt.Errorf("analysis: partition %d replay: %w", i, err)
		}
		merged.Result = res // keep the last run's execution summary
		for _, w := range backend.Warnings() {
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
	return merged, nil
}
