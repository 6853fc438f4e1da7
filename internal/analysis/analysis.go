// Package analysis implements the Offline Patch Generator (Section V):
// it replays a program on an attack input over the shadow-memory heap,
// collects the warnings, and distills them into heap patches keyed by
// allocation-time calling context.
//
// The paper builds this phase on Valgrind; here the same instrumented
// program (same call graph, same encoding plan, same per-site
// constants) runs under the shadow backend, which is what guarantees
// that a CCID recorded offline matches the CCID the online defense
// computes for the same allocation context.
package analysis

import (
	"fmt"
	"io"
	"strings"

	"heaptherapy/internal/ccprof"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/shadow"
)

// Report is the outcome of analyzing one attack input.
type Report struct {
	// Program is the analyzed program's name.
	Program string
	// InputLen is the attack input's size.
	InputLen int
	// Result is the interpreter result of the replay (the run may
	// crash; analysis still yields whatever was detected first).
	Result *prog.Result
	// Warnings are the detected violations, in detection order.
	Warnings []shadow.Warning
	// Patches is the generated patch set.
	Patches *patch.Set
	// Skipped counts warnings that could not be attributed to an
	// allocation context (wild accesses) and yielded no patch.
	Skipped int
	// Leaks lists buffers never freed during the replay, grouped by
	// allocation context (a Memcheck-style leak check; informational,
	// not a patchable vulnerability type).
	Leaks []shadow.Leak
	// Contexts maps each patch key to its decoded call path when the
	// analyzer's encoder supports decoding (PCCE/DeltaPath). PCC —
	// the paper's deployed choice — cannot decode, so the map stays
	// empty then; the defense needs only the opaque CCID either way.
	Contexts map[patch.Key]string
}

// Analyzer generates patches by replaying attacks.
type Analyzer struct {
	// Coder is the calling-context instrumentation; it MUST be the
	// same coder (graph, plan, constants) the online system uses, or
	// offline CCIDs will not match online allocations.
	Coder *encoding.Coder
	// ShadowConfig tunes the analysis heap.
	ShadowConfig shadow.Config
	// MaxSteps bounds the replay (0 = interpreter default).
	MaxSteps uint64
}

// Analyze replays the program on the attack input and generates
// patches from every warning the shadow heap raises.
func (a *Analyzer) Analyze(p *prog.Program, attackInput []byte) (*Report, error) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, fmt.Errorf("analysis: creating space: %w", err)
	}
	backend, err := shadow.New(space, a.ShadowConfig)
	if err != nil {
		return nil, fmt.Errorf("analysis: creating shadow heap: %w", err)
	}
	it, err := prog.NewExec(p, prog.Config{
		Backend:  backend,
		Coder:    a.Coder,
		MaxSteps: a.MaxSteps,
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: building interpreter: %w", err)
	}
	return a.AnalyzeWith(p, attackInput, backend, it)
}

// AnalyzeWith replays the attack over a caller-prepared shadow backend
// and executor and distills the warnings into patches — the
// construction-free seam the campaign's pooled workbench drives. The
// backend must be freshly constructed or Reset, and it must be bound
// to the backend with this analyzer's coder; under those conditions
// repeated calls over recycled substrate are bit-identical to
// Analyze's fresh-construction path.
func (a *Analyzer) AnalyzeWith(p *prog.Program, attackInput []byte, backend *shadow.Backend, it prog.Exec) (*Report, error) {
	res, err := it.Run(attackInput)
	if err != nil {
		return nil, fmt.Errorf("analysis: replaying attack: %w", err)
	}

	rep := &Report{
		Program:  p.Name,
		InputLen: len(attackInput),
		Result:   res,
		Warnings: backend.Warnings(),
		Patches:  patch.NewSet(),
		Leaks:    backend.Leaks(),
	}
	for _, w := range rep.Warnings {
		if w.AllocFn == 0 {
			rep.Skipped++
			continue
		}
		rep.Patches.Add(w.Patch())
	}
	rep.Contexts = a.decodeContexts(p, rep.Patches)
	return rep, nil
}

// decodeContexts symbolizes patch CCIDs into call paths where the
// bound encoder supports decoding (nil when it cannot).
func (a *Analyzer) decodeContexts(p *prog.Program, set *patch.Set) map[patch.Key]string {
	if a.Coder == nil || !a.Coder.Precise() {
		return nil
	}
	out := make(map[patch.Key]string)
	for _, pp := range set.Patches() {
		if ctx := ccprof.DecodeContext(p, a.Coder, pp.Key()); ctx != "" {
			out[pp.Key()] = ctx
		}
	}
	return out
}

// WriteTo renders a human-readable analysis report; it implements a
// io.WriterTo-style helper (but returns only an error, as the byte
// count is uninteresting here).
func (r *Report) Write(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== HeapTherapy+ offline analysis: %s ===\n", r.Program)
	fmt.Fprintf(&sb, "attack input: %d bytes\n", r.InputLen)
	if r.Result.Crashed() {
		fmt.Fprintf(&sb, "replay: crashed (%v)\n", r.Result.Fault)
	} else {
		fmt.Fprintf(&sb, "replay: completed, %d steps, %d allocations\n", r.Result.Steps, r.Result.Allocs)
	}
	fmt.Fprintf(&sb, "warnings: %d (%d unattributable)\n", len(r.Warnings), r.Skipped)
	for i, warn := range r.Warnings {
		fmt.Fprintf(&sb, "  [%d] %s\n", i+1, warn)
	}
	fmt.Fprintf(&sb, "patches generated: %d\n", r.Patches.Len())
	for _, p := range r.Patches.Patches() {
		fmt.Fprintf(&sb, "  %s\n", p)
		if ctx, ok := r.Contexts[p.Key()]; ok {
			fmt.Fprintf(&sb, "    context: %s\n", ctx)
		}
	}
	if len(r.Leaks) > 0 {
		fmt.Fprintf(&sb, "leak check: %d leaking context(s)\n", len(r.Leaks))
		for _, l := range r.Leaks {
			fmt.Fprintf(&sb, "  %s\n", l)
		}
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("analysis: writing report: %w", err)
	}
	return nil
}
