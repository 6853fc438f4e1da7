// Package ccprof is a calling-context profiler built on the encoding
// machinery — a demonstration of the paper's point that calling-context
// encoding "has been widely used in debugging, testing, anomaly
// detection, event logging, performance optimization, and profiling"
// (Section II-B), beyond its role in heap patching.
//
// The profiler wraps any heap backend, counts allocations and bytes per
// {FUN, CCID}, and — when the bound encoder supports decoding — renders
// the hottest allocation contexts symbolically. It is also what the
// evaluation harness uses to select the paper's "median frequency"
// hypothesized-vulnerable contexts for Figure 8.
package ccprof

import (
	"fmt"
	"sort"
	"strings"

	"heaptherapy/internal/callgraph"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/heapsim"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// Sample aggregates one allocation context's activity.
type Sample struct {
	// Key is the {FUN, CCID} identity.
	Key patch.Key
	// Count is the number of allocations.
	Count uint64
	// Bytes is the total bytes requested.
	Bytes uint64
	// Context is the decoded call path ("" if the encoder cannot
	// decode or the context is recursive).
	Context string
}

// Profiler wraps a heap backend and records allocation contexts.
type Profiler struct {
	prog.HeapBackend
	counts map[patch.Key]*Sample
}

var _ prog.HeapBackend = (*Profiler)(nil)

// New wraps a backend with context profiling.
func New(backend prog.HeapBackend) *Profiler {
	return &Profiler{
		HeapBackend: backend,
		counts:      make(map[patch.Key]*Sample),
	}
}

// Alloc implements prog.HeapBackend, recording the context.
func (p *Profiler) Alloc(fn heapsim.AllocFn, ccid, n, size, align uint64) (uint64, error) {
	total := size
	if fn == heapsim.FnCalloc {
		total = n * size
	}
	p.record(patch.Key{Fn: fn, CCID: ccid}, total)
	return p.HeapBackend.Alloc(fn, ccid, n, size, align)
}

// Realloc implements prog.HeapBackend, recording the realloc context.
func (p *Profiler) Realloc(ccid, ptr, size uint64) (uint64, error) {
	p.record(patch.Key{Fn: heapsim.FnRealloc, CCID: ccid}, size)
	return p.HeapBackend.Realloc(ccid, ptr, size)
}

func (p *Profiler) record(k patch.Key, bytes uint64) {
	s, ok := p.counts[k]
	if !ok {
		s = &Sample{Key: k}
		p.counts[k] = s
	}
	s.Count++
	s.Bytes += bytes
}

// Samples returns the profile sorted by descending allocation count;
// ties break by CCID, then by allocation function, so the order never
// depends on map iteration.
func (p *Profiler) Samples() []Sample {
	out := make([]Sample, 0, len(p.counts))
	for _, s := range p.counts {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Key.CCID != out[j].Key.CCID {
			return out[i].Key.CCID < out[j].Key.CCID
		}
		return out[i].Key.Fn < out[j].Key.Fn
	})
	return out
}

// Symbolize fills each sample's Context with its decoded call path
// (see DecodeContext). Samples that cannot decode keep "".
func Symbolize(samples []Sample, p *prog.Program, coder *encoding.Coder) {
	for i := range samples {
		samples[i].Context = DecodeContext(p, coder, samples[i].Key)
	}
}

// DecodeContext renders the call path that an allocation key's CCID
// encodes, from the program's entry to the allocation function
// ("main -> f -> malloc"). It returns "" when the coder cannot decode
// (PCC) or the context does not decode from the entry (recursion, a
// cross-root context). Offline analysis symbolizes its patches with it
// too, so both name a context the same way.
func DecodeContext(p *prog.Program, coder *encoding.Coder, k patch.Key) string {
	if coder == nil || !coder.Precise() {
		return ""
	}
	g := p.Graph()
	root, target := g.NodeByName(p.Entry), g.NodeByName(k.Fn.String())
	if root == callgraph.InvalidNode || target == callgraph.InvalidNode {
		return ""
	}
	path, err := coder.Decode(root, target, k.CCID)
	if err != nil {
		return ""
	}
	parts := []string{p.Entry}
	for _, s := range path {
		parts = append(parts, g.Name(g.Edge(s).To))
	}
	return strings.Join(parts, " -> ")
}

// Profile runs the program once with profiling over a native backend
// factory-provided by the caller and returns the sorted, symbolized
// profile. The run uses the compiled engine. The last parameter is
// kept so existing callers still compile and has no effect.
func Profile(p *prog.Program, backend prog.HeapBackend, coder *encoding.Coder, input []byte, _ prog.Engine) ([]Sample, error) {
	prof := New(backend)
	it, err := prog.NewExec(p, prog.Config{Backend: prof, Coder: coder})
	if err != nil {
		return nil, err
	}
	res, err := it.Run(input)
	if err != nil {
		return nil, fmt.Errorf("ccprof: profiling run: %w", err)
	}
	if res.Crashed() {
		return nil, fmt.Errorf("ccprof: profiling run crashed: %v", res.Fault)
	}
	samples := prof.Samples()
	Symbolize(samples, p, coder)
	return samples, nil
}

// Render prints the top-n contexts as a table.
func Render(samples []Sample, n int) string {
	if n > len(samples) {
		n = len(samples)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-12s %-10s %s\n", "count", "bytes", "fn", "context (ccid)")
	for _, s := range samples[:n] {
		ctx := s.Context
		if ctx == "" {
			ctx = fmt.Sprintf("ccid %#x", s.Key.CCID)
		} else {
			ctx = fmt.Sprintf("%s (%#x)", ctx, s.Key.CCID)
		}
		fmt.Fprintf(&sb, "%-8d %-12d %-10s %s\n", s.Count, s.Bytes, s.Key.Fn, ctx)
	}
	return sb.String()
}
