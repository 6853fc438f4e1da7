// Package campaign is the repo's standing correctness rig: a seeded
// random program generator that injects heap vulnerabilities with
// known ground truth, a heap-invariant walker that audits allocator
// and page-table state between interpreter quanta, a differential
// oracle that runs every generated program across the full execution
// matrix (tree-walker vs compiled engine, boundary-tag heap vs pool
// allocator, native vs shadow-analyzed vs defended-with-generated-
// patches), and a minimizing reducer that shrinks failing programs
// while preserving the failure signature.
//
// The paper's central claim — allocator-agnostic, calling-context-
// keyed defenses neutralize (almost) all heap vulnerabilities — is a
// universally quantified statement, so the rig checks it over an
// unbounded family of adversarial programs rather than a fixed
// corpus: every seed yields a new program, a benign input, an attack
// input, and a machine-checkable expectation per matrix cell.
package campaign

import (
	"bytes"
	"fmt"

	"heaptherapy/internal/patch"
	"heaptherapy/internal/prog"
)

// VulnKind is the class of vulnerability a generated program carries.
type VulnKind uint8

// Vulnerability kinds. Each maps to a ground-truth patch type the
// offline analysis must discover (GroundTruth) and a defense outcome
// the oracle asserts (see oracle.go).
const (
	// OverflowRead leaks an adjacent buffer through an attacker-sized
	// over-read (Heartbleed's shape).
	OverflowRead VulnKind = iota
	// OverflowWrite clobbers an adjacent buffer (and, natively, chunk
	// metadata) through an attacker-bounded write loop.
	OverflowWrite
	// UnderflowRead reads before the buffer start; the paper's guard
	// page sits after the buffer, so this is one of the "(almost)"
	// cases: detected offline, not neutralized online.
	UnderflowRead
	// UAFRead reads a dangling pointer whose chunk has been reused.
	UAFRead
	// UAFWrite writes through a dangling pointer into reused memory.
	UAFWrite
	// DoubleFree frees the same pointer twice.
	DoubleFree
	// UninitRead outputs never-written heap bytes that natively still
	// hold a previous allocation's secrets.
	UninitRead

	numKinds
)

// AllKinds lists every vulnerability kind in declaration order.
func AllKinds() []VulnKind {
	ks := make([]VulnKind, 0, numKinds)
	for k := VulnKind(0); k < numKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

func (k VulnKind) String() string {
	switch k {
	case OverflowRead:
		return "overflow-read"
	case OverflowWrite:
		return "overflow-write"
	case UnderflowRead:
		return "underflow-read"
	case UAFRead:
		return "uaf-read"
	case UAFWrite:
		return "uaf-write"
	case DoubleFree:
		return "double-free"
	case UninitRead:
		return "uninit-read"
	default:
		return fmt.Sprintf("VulnKind(%d)", uint8(k))
	}
}

// ParseKind parses a kind name as printed by String.
func ParseKind(s string) (VulnKind, error) {
	for _, k := range AllKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown vulnerability kind %q", s)
}

// GroundTruth is the patch type the offline analysis must attribute
// to the injected site. Underflows are red-zone "before" hits, which
// shadow analysis classifies as overflow; double frees are
// use-after-free of the chunk's identity.
func (k VulnKind) GroundTruth() patch.TypeMask {
	switch k {
	case OverflowRead, OverflowWrite, UnderflowRead:
		return patch.TypeOverflow
	case UAFRead, UAFWrite, DoubleFree:
		return patch.TypeUseAfterFree
	case UninitRead:
		return patch.TypeUninitRead
	default:
		return 0
	}
}

// Leaky reports whether the kind's attack exfiltrates secret bytes
// (the oracle then asserts the secret never appears in defended
// output).
func (k VulnKind) Leaky() bool {
	return k == OverflowRead || k == UAFRead || k == UninitRead
}

// Clobbering reports whether the kind's attack overwrites a sentinel
// that defense must preserve.
func (k VulnKind) Clobbering() bool {
	return k == OverflowWrite || k == UAFWrite
}

// Generated is one generated campaign case: a linked program (built
// from AST, round-tripped through the progtext printer and parser so
// Source is always an exact textual twin), its two inputs, and the
// injected ground truth.
type Generated struct {
	// Seed reproduces the case bit-for-bit via Generate.
	Seed uint64
	// Kind is the injected vulnerability class.
	Kind VulnKind
	// Program is the linked program (parsed back from Source).
	Program *prog.Program
	// Source is the progtext rendering of the program.
	Source string
	// Benign keeps every access in bounds; Attack drives the injected
	// site out of bounds (or down the premature-free path).
	Benign []byte
	Attack []byte
	// Secret is planted where leak attacks can reach it natively; it
	// must never appear in shadow-clean or defended output (leak
	// kinds only).
	Secret []byte
	// Sentinel must survive in output unless the attack clobbers it
	// natively (clobbering kinds only).
	Sentinel []byte
}

// Breach reports how an attack run's result breached the defense, or
// "" when the run contained it: the secret leaked into the output, the
// sentinel is gone from it without a fault, or a double free ran
// without a fault. The text is the oracle's failure detail.
func (g *Generated) Breach(res *prog.Result) string {
	switch {
	case g.Kind.Leaky() && bytes.Contains(res.Output, g.Secret):
		return "secret leaked through defended output"
	case g.Kind.Clobbering() && res.Fault == nil && !bytes.Contains(res.Output, g.Sentinel):
		return "sentinel clobbered under defense"
	case g.Kind == DoubleFree && res.Fault == nil:
		return "double free not contained (no fault)"
	}
	return ""
}
