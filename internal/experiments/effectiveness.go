package experiments

import (
	"fmt"

	"heaptherapy/internal/core"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/vuln"
)

// TableIIRow is one effectiveness result.
type TableIIRow struct {
	// Name and Ref identify the program (Table II's first columns).
	Name, Ref string
	// Expected is the vulnerability class from the corpus definition.
	Expected patch.TypeMask
	// Detected is the union of patch types the offline analysis found.
	Detected patch.TypeMask
	// Patches is the number of patches generated.
	Patches int
	// AttackNative reports whether the attack succeeded undefended.
	AttackNative bool
	// AttackDefended reports whether the attack still succeeded with
	// patches deployed (must be false).
	AttackDefended bool
	// BenignOK reports whether benign inputs behaved identically under
	// the defense.
	BenignOK bool
}

// Defeated reports whether the pipeline handled this case end to end.
func (r TableIIRow) Defeated() bool {
	return r.AttackNative && !r.AttackDefended && r.Patches > 0 && r.BenignOK
}

// TableIIResult reproduces Table II over the whole corpus.
type TableIIResult struct {
	Rows []TableIIRow
}

// TableII runs the effectiveness evaluation: patch generation and
// online defense for every corpus program.
func TableII(cfg Config) (*TableIIResult, error) {
	cases := vuln.AllCases()
	if cfg.Quick {
		cases = vuln.Named()
	}
	out := &TableIIResult{}
	for _, c := range cases {
		sys, err := core.NewSystem(c.Program, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", c.Name, err)
		}
		row := TableIIRow{Name: c.Name, Ref: c.Ref, Expected: c.Types, BenignOK: true}

		nat, err := sys.RunNative(c.Attack)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s native: %w", c.Name, err)
		}
		row.AttackNative = c.Success(nat)

		rep, err := sys.GeneratePatches(c.Attack)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s analysis: %w", c.Name, err)
		}
		row.Patches = rep.Patches.Len()
		for _, p := range rep.Patches.Patches() {
			row.Detected |= p.Types
		}

		def, err := sys.RunDefended(c.Attack, rep.Patches)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s defended: %w", c.Name, err)
		}
		row.AttackDefended = c.Success(def.Result)

		for _, in := range c.Benign {
			n, err := sys.RunNative(in)
			if err != nil {
				return nil, err
			}
			d, err := sys.RunDefended(in, rep.Patches)
			if err != nil {
				return nil, err
			}
			if d.Result.Crashed() || string(n.Output) != string(d.Result.Output) {
				row.BenignOK = false
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints Table II.
func (r *TableIIResult) Render() string {
	header := []string{"Program", "Reference", "Type found", "Patches", "Attack native", "Attack defended", "Benign OK"}
	var rows [][]string
	defeated := 0
	for _, row := range r.Rows {
		if row.Defeated() {
			defeated++
		}
		rows = append(rows, []string{
			row.Name, row.Ref, row.Detected.String(),
			fmt.Sprintf("%d", row.Patches),
			verdict(row.AttackNative, "succeeds", "fails"),
			verdict(row.AttackDefended, "SUCCEEDS(!)", "defeated"),
			verdict(row.BenignOK, "yes", "NO(!)"),
		})
	}
	return fmt.Sprintf("Table II: effectiveness (%d/%d attacks defeated with auto-generated patches)\n",
		defeated, len(r.Rows)) + table(header, rows)
}

func verdict(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}
