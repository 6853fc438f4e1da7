// Package core wires the HeapTherapy+ pipeline end to end: program
// instrumentation (calling-context encoding), offline attack analysis
// and patch generation, and online defended execution. It is the
// programmatic equivalent of Figure 1's three components and the
// engine behind the public heaptherapy package, the CLI tools, and the
// examples.
package core

import (
	"fmt"

	"heaptherapy/internal/analysis"
	"heaptherapy/internal/defense"
	"heaptherapy/internal/encoding"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/shadow"
	"heaptherapy/internal/telemetry"
)

// Options selects the encoding configuration. The paper's deployed
// system uses PCC arithmetic with the Incremental plan; both axes stay
// configurable for the evaluation's comparisons.
type Options struct {
	// Scheme is the instrumentation planner (default SchemeIncremental).
	Scheme encoding.Scheme
	// Encoder is the update arithmetic (default EncoderPCC).
	Encoder encoding.EncoderKind
	// QueueQuota bounds the online deferred-free queue (0 = default).
	QueueQuota uint64
	// Family selects the defense policy family for defended runs
	// (default defense.FamilyHT). Offline analysis always runs the
	// shadow engine and is unaffected.
	Family defense.Family
	// MaxSteps bounds each execution (0 = interpreter default).
	MaxSteps uint64
	// Engine is kept so existing configurations still compile.
	//
	// Deprecated: no effect. Every pipeline stage runs the compiled
	// engine; the tree reference is reached only through
	// prog.Config.Engine.
	Engine prog.Engine
	// Telemetry, when non-nil, instruments every pipeline stage run
	// through this System: each run binds one scope for its space,
	// allocator, and (where applicable) defense or shadow layer, plus
	// quantum-boundary timing. Nil runs carry zero instrumentation
	// overhead beyond a per-site nil check.
	Telemetry *telemetry.Collector
}

func (o Options) withDefaults() Options {
	if o.Scheme == 0 {
		o.Scheme = encoding.SchemeIncremental
	}
	if o.Encoder == 0 {
		o.Encoder = encoding.EncoderPCC
	}
	return o
}

// System is an instrumented program plus the pipeline around it. The
// instrumentation step is one-time (as in the paper); the resulting
// coder is shared by offline analysis and online defense, which is the
// property that makes offline CCIDs match online allocations.
//
// A System keeps no prog.Prepared: every run compiles its own
// executor, which lives only as long as that run. Callers hold many
// Systems at once (one per program of an experiment), and a cached
// Prepared would keep each program's bytecode live between runs.
type System struct {
	opts    Options
	program *prog.Program
	coder   *encoding.Coder
}

// NewSystem instruments a linked program.
func NewSystem(p *prog.Program, opts Options) (*System, error) {
	opts = opts.withDefaults()
	if p.Graph() == nil {
		return nil, fmt.Errorf("core: program %s is not linked", p.Name)
	}
	if len(p.Targets()) == 0 {
		return nil, fmt.Errorf("core: program %s performs no heap allocation", p.Name)
	}
	plan, err := encoding.NewPlan(opts.Scheme, p.Graph(), p.Targets())
	if err != nil {
		return nil, fmt.Errorf("core: planning instrumentation: %w", err)
	}
	coder, err := encoding.NewCoder(opts.Encoder, p.Graph(), plan)
	if err != nil {
		return nil, fmt.Errorf("core: building coder: %w", err)
	}
	return &System{opts: opts, program: p, coder: coder}, nil
}

// Program returns the instrumented program.
func (s *System) Program() *prog.Program { return s.program }

// Coder returns the calling-context coder.
func (s *System) Coder() *encoding.Coder { return s.coder }

// GeneratePatches replays an attack input offline and returns the
// analysis report with generated patches.
func (s *System) GeneratePatches(attackInput []byte) (*analysis.Report, error) {
	a := &analysis.Analyzer{
		Coder:        s.coder,
		MaxSteps:     s.opts.MaxSteps,
		ShadowConfig: shadow.Config{Telemetry: s.scope()},
	}
	return a.Analyze(s.program, attackInput)
}

// scope binds a fresh telemetry tenant for one pipeline-stage run, or
// nil when the System is untelemetered.
func (s *System) scope() *telemetry.Scope {
	if s.opts.Telemetry == nil {
		return nil
	}
	return s.opts.Telemetry.Scope()
}

// RunNative executes the program with no defense (and no encoding):
// the baseline.
func (s *System) RunNative(input []byte) (*prog.Result, error) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, fmt.Errorf("core: creating space: %w", err)
	}
	tel := s.scope()
	space.SetTelemetry(tel)
	backend, err := prog.NewNativeBackend(space)
	if err != nil {
		return nil, fmt.Errorf("core: creating native backend: %w", err)
	}
	if h := backend.Heap(); h != nil {
		h.SetTelemetry(tel)
	}
	it, err := prog.NewExec(s.program, s.execConfig(backend, nil))
	if err != nil {
		return nil, fmt.Errorf("core: building interpreter: %w", err)
	}
	attachQuantumTelemetry(it, backend, tel)
	res, err := it.Run(input)
	if err != nil {
		return nil, fmt.Errorf("core: native run: %w", err)
	}
	return res, nil
}

// DefendedRun is the outcome of a protected execution.
type DefendedRun struct {
	// Result is the program execution result.
	Result *prog.Result
	// Stats is the defense layer's activity.
	Stats defense.Stats
	// HeapErr reports underlying-allocator corruption detected after
	// the run (nil = arena consistent). A defended program whose
	// patched attacks were contained must leave the heap consistent;
	// an UNPATCHED attack may legitimately corrupt chunk metadata, so
	// this is surfaced rather than treated as an execution error.
	HeapErr error
}

// execConfig is the executor configuration of every run: the
// System's step bound over backend, encoded by coder (nil for the
// uninstrumented native baseline).
func (s *System) execConfig(backend prog.HeapBackend, coder *encoding.Coder) prog.Config {
	return prog.Config{Backend: backend, Coder: coder, MaxSteps: s.opts.MaxSteps}
}

// defendedBackend builds a fresh defended heap with the System's
// policy options and the given patches.
func (s *System) defendedBackend(patches *patch.Set) (*defense.Backend, *telemetry.Scope, error) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("core: creating space: %w", err)
	}
	tel := s.scope()
	space.SetTelemetry(tel)
	backend, err := defense.NewBackend(space, defense.Config{
		Mode:       defense.ModeFull,
		Family:     s.opts.Family,
		Patches:    patches,
		QueueQuota: s.opts.QueueQuota,
		Telemetry:  tel,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: creating defended backend: %w", err)
	}
	return backend, tel, nil
}

// RunDefended executes the program under the Online Defense Generator
// with the given patch configuration.
func (s *System) RunDefended(input []byte, patches *patch.Set) (*DefendedRun, error) {
	backend, tel, err := s.defendedBackend(patches)
	if err != nil {
		return nil, err
	}
	defer func() { backend.Defender().Stats().AddTo(tel) }()
	it, err := prog.NewExec(s.program, s.execConfig(backend, s.coder))
	if err != nil {
		return nil, fmt.Errorf("core: building interpreter: %w", err)
	}
	attachQuantumTelemetry(it, backend, tel)
	res, err := it.Run(input)
	if err != nil {
		return nil, fmt.Errorf("core: defended run: %w", err)
	}
	out := &DefendedRun{Result: res, Stats: backend.Defender().Stats()}
	if h := backend.Defender().Heap(); h != nil {
		out.HeapErr = h.CheckIntegrity()
	}
	return out, nil
}

// PatchCycle is the full workflow of the paper's Figure 1 for one
// attack input: analyze the attack offline, generate patches, and
// return them ready for deployment.
func (s *System) PatchCycle(attackInput []byte) (*patch.Set, *analysis.Report, error) {
	rep, err := s.GeneratePatches(attackInput)
	if err != nil {
		return nil, nil, err
	}
	return rep.Patches, rep, nil
}

// HandleAttacks runs a defense-generation cycle per attack input and
// merges the resulting patches. This is Section IX's answer to
// vulnerabilities exploitable through multiple calling contexts: when
// an attacker develops a new input that exploits a buffer allocated in
// a different context, "our system simply treats it as a new
// vulnerability and starts another defense generation cycle". Reports
// are returned in input order.
func (s *System) HandleAttacks(attackInputs [][]byte) (*patch.Set, []*analysis.Report, error) {
	merged := patch.NewSet()
	reports := make([]*analysis.Report, 0, len(attackInputs))
	for i, input := range attackInputs {
		rep, err := s.GeneratePatches(input)
		if err != nil {
			return nil, nil, fmt.Errorf("core: attack %d: %w", i, err)
		}
		merged.Merge(rep.Patches)
		reports = append(reports, rep)
	}
	return merged, reports, nil
}

// RunDefendedThreads executes one program instance per input, all
// sharing a single defended heap, interleaved deterministically. V is
// thread-local, exactly as in the paper's multithreaded deployments.
func (s *System) RunDefendedThreads(inputs [][]byte, patches *patch.Set) ([]*prog.Result, defense.Stats, error) {
	backend, tel, err := s.defendedBackend(patches)
	if err != nil {
		return nil, defense.Stats{}, err
	}
	defer func() { backend.Defender().Stats().AddTo(tel) }()
	results, err := prog.RunThreads(s.program, s.execConfig(backend, s.coder), inputs, prog.DefaultQuantum)
	if err != nil {
		return nil, defense.Stats{}, fmt.Errorf("core: defended threads: %w", err)
	}
	return results, backend.Defender().Stats(), nil
}

// attachQuantumTelemetry samples the backend's virtual-cycle
// accumulator at quantum boundaries (every 256 statements), recording
// one CtrQuanta tick and a HistQuantumCycles observation per quantum.
// A nil scope leaves the hook seam untouched.
func attachQuantumTelemetry(it prog.Exec, backend prog.HeapBackend, tel *telemetry.Scope) {
	if tel == nil {
		return
	}
	const every = 256
	var last uint64
	prog.SetQuantumHook(it, every, func() {
		now := backend.Cycles()
		if now < last {
			last = now
			return
		}
		tel.Inc(telemetry.CtrQuanta)
		tel.Observe(telemetry.HistQuantumCycles, now-last)
		last = now
	})
}
