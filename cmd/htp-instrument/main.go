// Command htp-instrument is the Program Instrumentation Tool CLI: it
// plans calling-context-encoding instrumentation for a call graph and
// prints per-scheme instrumentation sets, site counts, and the
// size-increase model (the data behind Table III).
//
// Usage:
//
//	htp-instrument -figure2                   # the paper's example graph
//	htp-instrument -bench 400.perlbench       # a SPEC-like benchmark graph
//	htp-instrument -bench 401.bzip2 -dot out.dot -scheme Slim
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"heaptherapy/internal/callgraph"
	"heaptherapy/internal/ccprof"
	"heaptherapy/internal/core"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/instrument"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "htp-instrument:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("htp-instrument", flag.ContinueOnError)
	fig2 := fs.Bool("figure2", false, "use the paper's Figure 2 example graph")
	bench := fs.String("bench", "", "use this SPEC benchmark's synthetic call graph")
	programFile := fs.String("program", "", "plan instrumentation for a progtext program file")
	dotOut := fs.String("dot", "", "write a Graphviz rendering of the chosen scheme's plan here")
	schemeName := fs.String("scheme", "Incremental", "scheme for -dot and site listing: FCS, TCS, Slim, Incremental")
	listSites := fs.Bool("sites", false, "list the instrumented call sites of -scheme")
	profile := fs.Bool("profile", false, "run the program (bench or -program) and print its hottest allocation contexts")
	rewriteOut := fs.String("rewrite", "", "write the instrumented program (per -scheme, PCC arithmetic) as progtext to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		g       *callgraph.Graph
		targets []callgraph.NodeID
		name    string
		size    func(callgraph.NodeID) uint64
		program *prog.Program
	)
	switch {
	case *fig2:
		g, targets = callgraph.Figure2()
		name = "figure-2 example"
	case *bench != "":
		b, err := workload.BenchmarkByName(*bench)
		if err != nil {
			return err
		}
		var gerr error
		g, targets, gerr = b.Graph()
		if gerr != nil {
			return gerr
		}
		name = b.Name
		size = b.FuncSize()
		if *profile {
			program, _, err = b.Program(workload.ProgramConfig{Scale: 100_000})
			if err != nil {
				return err
			}
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
		g, targets = p.Graph(), p.Targets()
		name = p.Name
		program = p
	default:
		return fmt.Errorf("one of -figure2, -bench, or -program is required")
	}

	fmt.Fprintf(stdout, "graph: %s (%d functions, %d call sites, %d targets)\n\n",
		name, g.NumNodes(), g.NumEdges(), len(targets))
	fmt.Fprintf(stdout, "%-12s  %-6s  %-6s  %-8s\n", "scheme", "sites", "funcs", "size(+%)")
	for _, scheme := range encoding.AllSchemes() {
		plan, err := encoding.NewPlan(scheme, g, targets)
		if err != nil {
			return err
		}
		rep := encoding.Cost(g, plan, encoding.EncoderPCC, size)
		fmt.Fprintf(stdout, "%-12s  %-6d  %-6d  %.2f\n",
			scheme, rep.InstrumentedSites, rep.InstrumentedFuncs, rep.SizeIncreasePercent())
	}

	scheme, err := encoding.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	plan, err := encoding.NewPlan(scheme, g, targets)
	if err != nil {
		return err
	}
	if *listSites {
		fmt.Fprintf(stdout, "\n%s instrumentation set:\n", scheme)
		for _, label := range plan.SiteLabels(g) {
			fmt.Fprintln(stdout, " ", label)
		}
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(g.DOT(targets, plan.SiteSet())), 0o644); err != nil {
			return fmt.Errorf("writing DOT: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote %s plan rendering to %s\n", scheme, *dotOut)
	}
	if *profile {
		if program == nil {
			return fmt.Errorf("-profile needs a runnable program (-bench or -program)")
		}
		samples, err := profileProgram(program)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nhottest allocation contexts of %s:\n%s", program.Name, ccprof.Render(samples, 15))
	}
	if *rewriteOut != "" {
		if program == nil {
			return fmt.Errorf("-rewrite needs a program (-program, or -bench with -profile)")
		}
		sys, err := core.NewSystem(program, core.Options{Scheme: scheme})
		if err != nil {
			return err
		}
		rewritten, err := instrument.Rewrite(program, sys.Coder())
		if err != nil {
			return err
		}
		if err := os.WriteFile(*rewriteOut, []byte(progtext.Print(rewritten)), 0o644); err != nil {
			return fmt.Errorf("writing instrumented program: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote %s-instrumented program to %s\n", scheme, *rewriteOut)
	}
	return nil
}

// profileProgram runs one profiling execution with PCCE instrumentation
// so contexts can be symbolized.
func profileProgram(p *prog.Program) ([]ccprof.Sample, error) {
	sys, err := core.NewSystem(p, core.Options{Scheme: encoding.SchemeTCS, Encoder: encoding.EncoderPCCE})
	if err != nil {
		return nil, err
	}
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, err
	}
	backend, err := prog.NewNativeBackend(space)
	if err != nil {
		return nil, err
	}
	return ccprof.Profile(p, backend, sys.Coder(), nil, prog.EngineCompiled)
}
