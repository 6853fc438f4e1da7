package experiments

import (
	"strconv"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
)

// PatchScaling verifies the paper's O(1) claim: "it takes only O(1)
// time to determine whether a new buffer is vulnerable". The
// allocation-path cost of one malloc/free pair,
// <patches>/cycles_per_pair, must stay flat as the loaded patch count
// grows by orders of magnitude (none of the loaded patches match the
// workload's contexts, so the measurement isolates pure lookup).
func PatchScaling(cfg Config) (*Result, error) {
	counts := []int{0, 10, 100, 1000, 10000}
	if cfg.Quick {
		counts = []int{0, 100, 10000}
	}
	const (
		rounds   = 2000
		workCCID = 0x50
	)
	m := metrics{}
	var rows [][]string
	for _, n := range counts {
		set := patch.NewSet()
		for i := 0; i < n; i++ {
			set.Add(patch.Patch{
				Fn:    heapsim.FnMalloc,
				CCID:  0x100000 + uint64(i), // never matches the workload
				Types: patch.TypeOverflow,
			})
		}
		space, err := mem.NewSpace(mem.Config{})
		if err != nil {
			return nil, err
		}
		d, err := defense.New(space, defense.Config{Patches: set})
		if err != nil {
			return nil, err
		}
		start := d.Cycles()
		for i := 0; i < rounds; i++ {
			p, err := d.Malloc(workCCID, 128)
			if err != nil {
				return nil, err
			}
			if err := d.Free(p); err != nil {
				return nil, err
			}
		}
		row := strconv.Itoa(n)
		rows = append(rows, []string{row, m.cell(row+"/cycles_per_pair", "%.1f", float64(d.Cycles()-start)/rounds)})
	}
	text := "Patch-table scaling (Section VI: O(1) lookup per allocation)\n" +
		table([]string{"Loaded patches", "cycles per malloc/free pair"}, rows)
	return &Result{Text: text, Metrics: m}, nil
}
