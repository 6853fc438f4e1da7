// Command htp-run executes a corpus program natively or under the
// Online Defense Generator with a patch configuration file: the
// deployment half of code-less patching.
//
// Usage:
//
//	htp-run -case heartbleed                         # native, built-in attack
//	htp-run -case heartbleed -patches patches.conf   # defended
//	htp-run -case heartbleed -benign 0               # first benign input
//	htp-run -case heartbleed -patches patches.conf -telemetry table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"heaptherapy/internal/core"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/telemetry"
	"heaptherapy/internal/vuln"
)

// caseOracle wraps an optional attack-success oracle; programs loaded
// from files have none.
type caseOracle struct {
	oracle func(*prog.Result) bool
}

// Success applies the oracle; without one, nothing counts as success.
func (c caseOracle) Success(r *prog.Result) bool {
	return c.oracle != nil && c.oracle(r)
}

// HasOracle reports whether an oracle exists.
func (c caseOracle) HasOracle() bool { return c.oracle != nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "htp-run:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("htp-run", flag.ContinueOnError)
	caseName := fs.String("case", "", "corpus program to run (see htp-patchgen -list)")
	programFile := fs.String("program", "", "run a progtext program file instead of a corpus case")
	patchFile := fs.String("patches", "", "patch configuration file; empty runs natively")
	inputFile := fs.String("input-file", "", "read program input from this file instead of the built-in exploit")
	benign := fs.Int("benign", -1, "use the N-th built-in benign input instead of the attack")
	threads := fs.Int("threads", 1, "run N copies concurrently over one shared heap")
	encoderName := fs.String("encoder", "PCC", "calling-context encoder; must match the one htp-patchgen used")
	policyName := fs.String("policy", "ht", "defense policy family for defended runs: ht, shadowbound, or mesh")
	telemetryFmt := fs.String("telemetry", "", `append a telemetry report after the run: "table" or "json"`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *threads < 1 {
		return fmt.Errorf("-threads must be >= 1")
	}
	var tcol *telemetry.Collector
	switch *telemetryFmt {
	case "":
	case "table", "json":
		tcol = telemetry.New(telemetry.Config{})
	default:
		return fmt.Errorf(`-telemetry must be "table" or "json", not %q`, *telemetryFmt)
	}

	var (
		program *prog.Program
		input   []byte
		oracle  func(*prog.Result) bool
	)
	switch {
	case *caseName != "" && *programFile != "":
		return fmt.Errorf("-case and -program are mutually exclusive")
	case *caseName != "":
		c := vuln.ByName(*caseName)
		if c == nil {
			return fmt.Errorf("unknown case %q", *caseName)
		}
		program, input, oracle = c.Program, c.Attack, c.Success
		if *benign >= 0 {
			if *benign >= len(c.Benign) {
				return fmt.Errorf("case has %d benign inputs", len(c.Benign))
			}
			input = c.Benign[*benign]
		}
	case *programFile != "":
		src, err := os.ReadFile(*programFile)
		if err != nil {
			return fmt.Errorf("reading program: %w", err)
		}
		p, err := progtext.Parse(string(src))
		if err != nil {
			return err
		}
		program = p
	default:
		return fmt.Errorf("-case or -program is required")
	}
	if *inputFile != "" {
		data, err := os.ReadFile(*inputFile)
		if err != nil {
			return fmt.Errorf("reading input: %w", err)
		}
		input = data
	}

	encKind, err := encoding.ParseEncoder(*encoderName)
	if err != nil {
		return err
	}
	family, err := defense.ParseFamily(*policyName)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(program, core.Options{Encoder: encKind, Family: family, Telemetry: tcol})
	if err != nil {
		return err
	}
	c := caseOracle{oracle: oracle}

	if *patchFile == "" && family == defense.FamilyHT {
		res, err := sys.RunNative(input)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mode: native\n")
		printResult(stdout, res.Crashed(), res.Fault, res.Output, c, res)
		return printTelemetry(stdout, tcol, *telemetryFmt)
	}

	// A non-HT policy defends every allocation and needs no patch
	// configuration; -patches remains optional for those families.
	patches := patch.NewSet()
	if *patchFile != "" {
		f, err := os.Open(*patchFile)
		if err != nil {
			return fmt.Errorf("opening patches: %w", err)
		}
		var perr error
		patches, perr = patch.ReadConfig(f)
		if cerr := f.Close(); cerr != nil && perr == nil {
			perr = cerr
		}
		if perr != nil {
			return fmt.Errorf("loading patches: %w", perr)
		}
	}

	if *threads > 1 {
		inputs := make([][]byte, *threads)
		for i := range inputs {
			inputs[i] = input
		}
		results, stats, err := sys.RunDefendedThreads(inputs, patches)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mode: defended [%s], %d threads sharing one heap (%d patches loaded)\n",
			family, *threads, patches.Len())
		succeeded := 0
		for i, res := range results {
			if c.Success(res) {
				succeeded++
			}
			fmt.Fprintf(stdout, "thread %d: crashed=%v output=%q\n", i, res.Crashed(), clip(res.Output, 48))
		}
		fmt.Fprintf(stdout, "attack oracle: %d/%d threads' attacks succeeded\n", succeeded, *threads)
		fmt.Fprintf(stdout, "defense: %d allocs intercepted, %d recognized vulnerable, %d deferred frees\n",
			stats.Allocs, stats.PatchedAllocs, stats.DeferredFrees)
		return printTelemetry(stdout, tcol, *telemetryFmt)
	}

	run, err := sys.RunDefended(input, patches)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mode: defended [%s] (%d patches loaded)\n", family, patches.Len())
	printResult(stdout, run.Result.Crashed(), run.Result.Fault, run.Result.Output, c, run.Result)
	st := run.Stats
	fmt.Fprintf(stdout, "defense: %d allocs intercepted, %d recognized vulnerable, %d guard pages, %d zero fills, %d deferred frees\n",
		st.Allocs, st.PatchedAllocs, st.GuardPages, st.ZeroFills, st.DeferredFrees)
	return printTelemetry(stdout, tcol, *telemetryFmt)
}

// printTelemetry appends the collector's snapshot in the requested
// format; a nil collector (no -telemetry flag) prints nothing.
func printTelemetry(w io.Writer, tcol *telemetry.Collector, format string) error {
	if tcol == nil {
		return nil
	}
	snap := tcol.Snapshot()
	if format == "json" {
		return snap.WriteJSON(w)
	}
	_, err := io.WriteString(w, snap.Render())
	return err
}

func printResult(w io.Writer, crashed bool, fault error, output []byte, c caseOracle, res *prog.Result) {
	if crashed {
		fmt.Fprintf(w, "execution: terminated by fault: %v\n", fault)
	} else {
		fmt.Fprintf(w, "execution: completed\n")
	}
	fmt.Fprintf(w, "output (%d bytes): %q\n", len(output), clip(output, 96))
	switch {
	case !c.HasOracle():
		fmt.Fprintln(w, "attack oracle: none (program loaded from file)")
	case c.Success(res):
		fmt.Fprintln(w, "attack oracle: ATTACK SUCCEEDED")
	default:
		fmt.Fprintln(w, "attack oracle: attack did not succeed")
	}
}

func clip(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return b[:n]
}
