package prog

import (
	"errors"
	"fmt"
	"strings"
)

// ErrStepLimit is wrapped by the error of a run that exceeds its
// Config.MaxSteps budget, on either engine.
var ErrStepLimit = errors.New("step limit")

// Engine selects the execution substrate for a linked program: the
// compiled engine that runs the program as quickened bytecode, or the
// reference tree-walking interpreter. The two are differentially
// verified to be bit-identical (results, statistics, crashes, cycle
// accounting); the tree-walker remains the semantic reference.
type Engine uint8

// Engines.
const (
	// EngineCompiled compiles the program once to flat bytecode and
	// runs it on a Machine (see jit.go). It is the zero value, so every
	// configuration that leaves Engine unset runs it.
	EngineCompiled Engine = iota
	// EngineTree is the reference tree-walking interpreter, kept
	// selectable as the differential reference.
	EngineTree
)

func (e Engine) String() string {
	switch e {
	case EngineTree:
		return "tree"
	case EngineCompiled:
		return "compiled"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// AllEngines lists the engines, reference first.
func AllEngines() []Engine { return []Engine{EngineTree, EngineCompiled} }

// ParseEngine parses an engine name (as printed by String).
func ParseEngine(s string) (Engine, error) {
	names := make([]string, 0, len(AllEngines()))
	for _, e := range AllEngines() {
		if e.String() == s {
			return e, nil
		}
		names = append(names, e.String())
	}
	return 0, fmt.Errorf("prog: unknown engine %q (valid: %s)", s, strings.Join(names, ", "))
}

// Exec is the engine-independent execution interface: one program
// instance bound to one backend, runnable many times. Both *Interp and
// *Machine implement it (and the unexported scheduling hook RunThreads
// needs), so every caller that holds an Exec works identically on
// either engine.
type Exec interface {
	Run(input []byte) (*Result, error)
}

// runner is the internal contract RunThreads needs on top of Exec.
type runner interface {
	Exec
	setSchedHook(every uint64, fn func())
}

// SetQuantumHook arranges for fn to run every `every` executed
// statements of ex, between statements (never mid-operation), on
// whichever engine backs ex. Campaign harnesses use it to walk heap
// and page-table invariants at quantum boundaries without touching
// interpreter hot paths. It reports whether ex supports hooking (both
// built-in engines do). every == 0 or fn == nil clears the hook.
func SetQuantumHook(ex Exec, every uint64, fn func()) bool {
	r, ok := ex.(runner)
	if !ok {
		return false
	}
	if every == 0 || fn == nil {
		r.setSchedHook(0, nil)
		return true
	}
	r.setSchedHook(every, fn)
	return true
}

// Prepared is a program readied once for one engine configuration,
// from which any number of executors are built — one per worker,
// thread, or backend. For EngineCompiled it owns the program's
// bytecode, which every executor shares, so the program compiles once.
// For EngineTree it holds only the configuration. A Prepared is
// immutable, so it is safe for concurrent NewExec calls.
type Prepared struct {
	p    *Program
	cfg  Config // Backend is supplied per executor
	code *bytecode
}

// Prepare readies p for cfg.Engine. cfg.Backend is ignored: each
// NewExec call supplies its own.
func Prepare(p *Program, cfg Config) (*Prepared, error) {
	cfg.Backend = nil
	pp := &Prepared{p: p, cfg: cfg}
	switch cfg.Engine {
	case EngineTree:
	case EngineCompiled:
		code, err := compile(p, cfg.Coder)
		if err != nil {
			return nil, err
		}
		pp.code = code
	default:
		return nil, fmt.Errorf("prog: unknown engine %v", cfg.Engine)
	}
	return pp, nil
}

// NewExec builds one executor bound to backend.
func (pp *Prepared) NewExec(backend HeapBackend) (Exec, error) {
	return pp.newRunner(backend)
}

// newRunner builds the executor; on error it returns a nil interface,
// never a typed nil pointer.
func (pp *Prepared) newRunner(backend HeapBackend) (runner, error) {
	cfg := pp.cfg
	cfg.Backend = backend
	if pp.code != nil {
		m, err := newMachine(pp.code, cfg)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	it, err := New(pp.p, cfg)
	if err != nil {
		return nil, err
	}
	return it, nil
}

// NewExec constructs one executor for p per cfg.Engine: Prepare
// followed by a single Prepared.NewExec. Callers that build several
// executors for one program should Prepare once and share it.
func NewExec(p *Program, cfg Config) (Exec, error) {
	pp, err := Prepare(p, cfg)
	if err != nil {
		return nil, err
	}
	return pp.NewExec(cfg.Backend)
}
