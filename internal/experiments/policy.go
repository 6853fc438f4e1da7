package experiments

import (
	"bytes"
	"fmt"
	"sort"

	"heaptherapy/internal/campaign"
	"heaptherapy/internal/core"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// PolicyKindCell is one (family, kind) cell of the policy matrix: the
// family's documented claim next to the observed attack outcome.
type PolicyKindCell struct {
	Kind string
	// Claimed is the family's Containment matrix entry.
	Claimed bool
	// Contained is the observed outcome over the cell's seeds: no
	// secret exfiltration, no sentinel clobber surviving to output,
	// double frees rejected, and no allocator panic — a deliberate
	// fault (bounds check, double-free abort, guard page) counts as
	// containment by termination.
	Contained bool
}

// PolicyRow aggregates one family across every vulnerability kind.
type PolicyRow struct {
	Family string
	Kinds  []PolicyKindCell
	// ClaimedRate and ObservedRate are the fractions of the seven
	// kinds the family claims, respectively demonstrably contains.
	ClaimedRate  float64
	ObservedRate float64
	// BenignCycles is the mean virtual-cycle cost of a benign defended
	// run; OverheadPct relates it to the native baseline — the
	// throughput axis of the head-to-head.
	BenignCycles uint64
	OverheadPct  float64
	// MemBytes is the mean address-space footprint after a benign
	// defended run; MemOverheadPct relates it to the native baseline.
	MemBytes       uint64
	MemOverheadPct float64
}

// PolicyMatrixResult is the cross-family head-to-head: HeapTherapy+
// against the alternative policy backends over identical workloads.
type PolicyMatrixResult struct {
	NativeCycles uint64
	NativeMem    uint64
	SeedsPerKind int
	Rows         []PolicyRow
}

// policyCase is one generated program plus its analysis artifacts,
// shared by every family's measurement so the comparison is paired.
type policyCase struct {
	g       *campaign.Generated
	sys     *core.System
	patches *patch.Set
}

// PolicyMatrix runs the defense-policy head-to-head: for every
// vulnerability kind, a few generated campaign programs run benign and
// attack inputs under each policy family (and natively for the
// baseline), measuring virtual-cycle throughput, address-space
// footprint, and observed containment. Patches come from the same
// shadow analysis HT deploys, so HT cells are armed exactly as in the
// paper's pipeline; the other families ignore the patch table by
// design and defend every allocation instead.
func PolicyMatrix(cfg Config) (*PolicyMatrixResult, error) {
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
			sys, err := core.NewSystem(g.Program, core.Options{Engine: cfg.Engine})
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

	out := &PolicyMatrixResult{SeedsPerKind: seedsPerKind}

	// Native baseline: benign cycles and footprint, averaged across
	// the whole corpus.
	var natCycles, natMem, n uint64
	for _, pc := range cases {
		cycles, size, _, err := policyRun(pc, defense.FamilyHT, nil, false, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: native baseline: %w", err)
		}
		natCycles += cycles
		natMem += size
		n++
	}
	out.NativeCycles = natCycles / n
	out.NativeMem = natMem / n

	for _, fam := range defense.AllFamilies() {
		row := PolicyRow{Family: fam.String()}
		byKind := map[string]*PolicyKindCell{}
		var cycles, memBytes uint64
		for _, pc := range cases {
			// Throughput and footprint: the benign defended run.
			c, size, _, err := policyRun(pc, fam, pc.patches, false, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v benign: %w", fam, err)
			}
			cycles += c
			memBytes += size

			// Containment: the attack run.
			_, _, contained, err := policyRun(pc, fam, pc.patches, true, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v attack: %w", fam, err)
			}
			kind := pc.g.Kind.String()
			cell, ok := byKind[kind]
			if !ok {
				cell = &PolicyKindCell{Kind: kind, Claimed: campaign.FamilyContains(fam, pc.g.Kind), Contained: true}
				byKind[kind] = cell
			}
			if !contained {
				cell.Contained = false
			}
		}
		row.BenignCycles = cycles / n
		row.MemBytes = memBytes / n
		row.OverheadPct = overheadPct(out.NativeCycles, row.BenignCycles)
		row.MemOverheadPct = overheadPct(out.NativeMem, row.MemBytes)

		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		claimed, observed := 0, 0
		for _, k := range kinds {
			cell := byKind[k]
			row.Kinds = append(row.Kinds, *cell)
			if cell.Claimed {
				claimed++
			}
			if cell.Contained {
				observed++
			}
		}
		row.ClaimedRate = float64(claimed) / float64(len(kinds))
		row.ObservedRate = float64(observed) / float64(len(kinds))
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// policyRun executes one case input over a fresh space: natively when
// patches is nil, else defended under fam. It returns the run's
// virtual cycles, the space's final footprint, and — for attack runs —
// whether the attack was observably contained.
func policyRun(pc *policyCase, fam defense.Family, patches *patch.Set, attack bool, cfg Config) (cycles, size uint64, contained bool, err error) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return 0, 0, false, err
	}
	var backend prog.HeapBackend
	if patches == nil {
		nb, nerr := prog.NewNativeBackend(space)
		if nerr != nil {
			return 0, 0, false, nerr
		}
		backend = nb
	} else {
		db, derr := defense.NewBackend(space, defense.Config{Patches: patches, Family: fam})
		if derr != nil {
			return 0, 0, false, derr
		}
		backend = db
	}
	ex, err := prog.NewExec(pc.g.Program, prog.Config{
		Backend:  backend,
		Coder:    pc.sys.Coder(),
		MaxSteps: 1 << 20,
		Engine:   cfg.Engine,
	})
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
	contained = true
	g := pc.g
	if g.Kind.Leaky() && bytes.Contains(res.Output, g.Secret) {
		contained = false
	}
	if g.Kind.Clobbering() && res.Fault == nil && !bytes.Contains(res.Output, g.Sentinel) {
		contained = false
	}
	if g.Kind == campaign.DoubleFree && res.Fault == nil {
		contained = false
	}
	return res.Cycles, space.Size(), contained, nil
}

// Detail is the experiment's -json headline: each family's observed
// containment rate and its benign cycle and memory overheads.
func (r *PolicyMatrixResult) Detail() map[string]float64 {
	d := make(map[string]float64, 3*len(r.Rows))
	for _, row := range r.Rows {
		d[row.Family+"_contained_rate"] = row.ObservedRate
		d[row.Family+"_cycles_overhead_pct"] = row.OverheadPct
		d[row.Family+"_mem_overhead_pct"] = row.MemOverheadPct
	}
	return d
}

// Render prints the policy matrix: one row per family with per-kind
// containment cells, then the throughput and memory head-to-head.
func (r *PolicyMatrixResult) Render() string {
	header := []string{"Policy"}
	if len(r.Rows) > 0 {
		for _, cell := range r.Rows[0].Kinds {
			header = append(header, cell.Kind)
		}
	}
	header = append(header, "contained", "cycles (benign)", "overhead", "mem", "mem ovh")
	var rows [][]string
	for _, row := range r.Rows {
		cols := []string{row.Family}
		for _, cell := range row.Kinds {
			switch {
			case cell.Claimed && cell.Contained:
				cols = append(cols, "yes")
			case cell.Claimed && !cell.Contained:
				cols = append(cols, "CLAIMED-MISS(!)")
			case !cell.Claimed && cell.Contained:
				cols = append(cols, "(yes)")
			default:
				cols = append(cols, "miss*")
			}
		}
		cols = append(cols,
			fmt.Sprintf("%.0f%%", row.ObservedRate*100),
			fmt.Sprintf("%d", row.BenignCycles),
			fmt.Sprintf("+%.1f%%", row.OverheadPct),
			fmt.Sprintf("%d KiB", row.MemBytes/1024),
			fmt.Sprintf("+%.1f%%", row.MemOverheadPct),
		)
		rows = append(rows, cols)
	}
	return fmt.Sprintf("Policy matrix: defense families head-to-head (%d seeds/kind; native baseline %d cycles, %d KiB)\n",
		r.SeedsPerKind, r.NativeCycles, r.NativeMem/1024) +
		table(header, rows) +
		"  miss* = documented expected miss (Family.Containment); (yes) = contained beyond the family's claims\n"
}
