package experiments

import (
	"fmt"
	"slices"
	"strings"

	"heaptherapy/internal/campaign"
	"heaptherapy/internal/core"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// policyCase is one generated program plus its analysis artifacts,
// shared by every family's measurement so the comparison is paired.
type policyCase struct {
	g       *campaign.Generated
	sys     *core.System
	patches *patch.Set
}

// PolicyMatrix runs the defense-policy head-to-head, HeapTherapy+
// against the alternative policy families over identical workloads:
// for every vulnerability kind, a few generated campaign programs run
// benign and attack inputs under each family (and natively for the
// baseline), measuring virtual-cycle throughput, address-space
// footprint, and observed containment. Patches come from the same
// shadow analysis HT deploys, so HT cells are armed exactly as in the
// paper's pipeline; the other families ignore the patch table by
// design and defend every allocation instead.
//
// Per family it reports <family>_contained_rate, the fraction of kinds
// demonstrably contained, and the benign cycle and memory overheads
// over the native baseline, <family>_cycles_overhead_pct and
// <family>_mem_overhead_pct. A kind is contained when every one of its
// seeds is: no secret exfiltration, no sentinel clobber surviving to
// output, double frees rejected, and no allocator panic — a deliberate
// fault (bounds check, double-free abort, guard page) counts as
// containment by termination.
func PolicyMatrix(cfg Config) (*Result, error) {
	seedsPerKind := 3
	if cfg.Quick {
		seedsPerKind = 1
	}

	// Generate the paired corpus: seedsPerKind cases of every kind,
	// each with its analysis-generated patches.
	var cases []*policyCase
	for _, kind := range campaign.AllKinds() {
		found := 0
		for seed := uint64(1); found < seedsPerKind && seed < 10000; seed++ {
			if campaign.PlannedKind(seed, campaign.GenConfig{}) != kind {
				continue
			}
			found++
			g, err := campaign.Generate(seed, campaign.GenConfig{})
			if err != nil {
				return nil, fmt.Errorf("experiments: policy seed %d: %w", seed, err)
			}
			sys, err := core.NewSystem(g.Program, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("experiments: policy seed %d: %w", seed, err)
			}
			rep, err := sys.GeneratePatches(g.Attack)
			if err != nil {
				return nil, fmt.Errorf("experiments: policy seed %d analysis: %w", seed, err)
			}
			cases = append(cases, &policyCase{g: g, sys: sys, patches: rep.Patches})
		}
		if found < seedsPerKind {
			return nil, fmt.Errorf("experiments: found only %d/%d seeds for %v", found, seedsPerKind, kind)
		}
	}
	// Columns run in kind-name order.
	kinds := campaign.AllKinds()
	slices.SortFunc(kinds, func(a, b campaign.VulnKind) int { return strings.Compare(a.String(), b.String()) })

	// Native baseline: benign cycles and footprint, averaged across
	// the whole corpus.
	var natCycles, natMem uint64
	for _, pc := range cases {
		cycles, size, _, err := policyRun(pc, defense.FamilyHT, nil, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: native baseline: %w", err)
		}
		natCycles += cycles
		natMem += size
	}
	n := uint64(len(cases))
	natCycles /= n
	natMem /= n
	m := metrics{"seeds_per_kind": float64(seedsPerKind), "native_cycles": float64(natCycles), "native_mem_bytes": float64(natMem)}

	var rows [][]string
	for _, fam := range defense.AllFamilies() {
		missed := map[campaign.VulnKind]bool{}
		var cycles, memBytes uint64
		for _, pc := range cases {
			// Throughput and footprint: the benign defended run.
			c, size, _, err := policyRun(pc, fam, pc.patches, false)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v benign: %w", fam, err)
			}
			cycles += c
			memBytes += size

			// Containment: the attack run.
			_, _, contained, err := policyRun(pc, fam, pc.patches, true)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v attack: %w", fam, err)
			}
			if !contained {
				missed[pc.g.Kind] = true
			}
		}
		cycles /= n
		memBytes /= n

		name := fam.String()
		cols := []string{name}
		for _, k := range kinds {
			switch claimed := campaign.FamilyContains(fam, k); {
			case claimed && !missed[k]:
				cols = append(cols, "yes")
			case claimed:
				cols = append(cols, "CLAIMED-MISS(!)")
			case !missed[k]:
				cols = append(cols, "(yes)")
			default:
				cols = append(cols, "miss*")
			}
		}
		rate := float64(len(kinds)-len(missed)) / float64(len(kinds))
		m[name+"_contained_rate"] = rate
		cols = append(cols,
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%d", cycles),
			"+"+m.cell(name+"_cycles_overhead_pct", "%.1f", overheadPct(natCycles, cycles))+"%",
			fmt.Sprintf("%d KiB", memBytes/1024),
			"+"+m.cell(name+"_mem_overhead_pct", "%.1f", overheadPct(natMem, memBytes))+"%",
		)
		rows = append(rows, cols)
	}

	header := []string{"Policy"}
	for _, k := range kinds {
		header = append(header, k.String())
	}
	header = append(header, "contained", "cycles (benign)", "overhead", "mem", "mem ovh")
	text := fmt.Sprintf("Policy matrix: defense families head-to-head (%d seeds/kind; native baseline %d cycles, %d KiB)\n",
		seedsPerKind, natCycles, natMem/1024) +
		table(header, rows) +
		"  miss* = documented expected miss (Family.Containment); (yes) = contained beyond the family's claims\n"
	return &Result{Text: text, Metrics: m}, nil
}

// policyRun executes one case input over a fresh space: natively when
// patches is nil, else defended under fam. It returns the run's
// virtual cycles, the space's final footprint, and — for attack runs —
// whether the attack was observably contained.
func policyRun(pc *policyCase, fam defense.Family, patches *patch.Set, attack bool) (cycles, size uint64, contained bool, err error) {
	var dcfg *defense.Config
	if patches != nil {
		dcfg = &defense.Config{Patches: patches, Family: fam}
	}
	backend, heap, err := newBackend(dcfg)
	if err != nil {
		return 0, 0, false, err
	}
	space := heap.Space()
	ex, err := prog.NewExec(pc.g.Program, prog.Config{Backend: backend, Coder: pc.sys.Coder(), MaxSteps: 1 << 20})
	if err != nil {
		return 0, 0, false, err
	}
	input := pc.g.Benign
	if attack {
		input = pc.g.Attack
	}
	var res *prog.Result
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
			}
		}()
		res, err = ex.Run(input)
	}()
	if panicked {
		// Allocator state clobbered hard enough to trip a load guard:
		// unambiguously not contained. Only attack runs may land here.
		return 0, space.Size(), false, nil
	}
	if err != nil {
		if attack {
			// Step exhaustion or an engine-level error under attack is
			// recorded as a miss, not an experiment failure.
			return 0, space.Size(), false, nil
		}
		return 0, 0, false, err
	}
	return res.Cycles, space.Size(), pc.g.Breach(res) == "", nil
}
