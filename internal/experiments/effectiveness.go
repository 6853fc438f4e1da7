package experiments

import (
	"fmt"

	"heaptherapy/internal/core"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/vuln"
)

// TableII runs the effectiveness evaluation: patch generation and
// online defense for every corpus program. Per program it records
// patches, attack_native, attack_defended and benign_ok (1 or 0), and
// the patch.TypeMask bits of types_found and types_expected (the
// corpus definition's class); defeated counts the programs handled end
// to end out of programs.
func TableII(cfg Config) (*Result, error) {
	cases := vuln.AllCases()
	if cfg.Quick {
		cases = vuln.Named()
	}
	m := metrics{}
	var rows [][]string
	defeated := 0
	for _, c := range cases {
		sys, err := core.NewSystem(c.Program, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", c.Name, err)
		}
		nat, err := sys.RunNative(c.Attack)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s native: %w", c.Name, err)
		}
		attackNative := c.Success(nat)

		rep, err := sys.GeneratePatches(c.Attack)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s analysis: %w", c.Name, err)
		}
		var detected patch.TypeMask
		for _, p := range rep.Patches.Patches() {
			detected |= p.Types
		}

		def, err := sys.RunDefended(c.Attack, rep.Patches)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s defended: %w", c.Name, err)
		}
		attackDefended := c.Success(def.Result)

		benignOK := true
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
				benignOK = false
			}
		}

		patches := rep.Patches.Len()
		if attackNative && !attackDefended && patches > 0 && benignOK {
			defeated++
		}
		m[c.Name+"/types_found"] = float64(detected)
		m[c.Name+"/types_expected"] = float64(c.Types)
		rows = append(rows, []string{
			c.Name, c.Ref, detected.String(),
			m.count(c.Name+"/patches", uint64(patches)),
			m.verdict(c.Name+"/attack_native", attackNative, "succeeds", "fails"),
			m.verdict(c.Name+"/attack_defended", attackDefended, "SUCCEEDS(!)", "defeated"),
			m.verdict(c.Name+"/benign_ok", benignOK, "yes", "NO(!)"),
		})
	}
	m["defeated"] = float64(defeated)
	m["programs"] = float64(len(cases))
	header := []string{"Program", "Reference", "Type found", "Patches", "Attack native", "Attack defended", "Benign OK"}
	text := fmt.Sprintf("Table II: effectiveness (%d/%d attacks defeated with auto-generated patches)\n",
		defeated, len(cases)) + table(header, rows)
	return &Result{Text: text, Metrics: m}, nil
}
