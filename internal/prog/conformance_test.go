package prog

// The conformance table the differential suites iterate (vm_test.go,
// vm_cross_test.go, quicken_test.go, hook_backend_test.go,
// threads_test.go), and the static half of the corpus reach check:
// every opcode compile can emit, and every fusion mark, must be emitted
// by some program of the differential corpus, or agreement with the
// tree proves nothing about it.

import (
	"fmt"
)

// engineConfig is one row of the conformance table.
type engineConfig struct {
	Name   string
	Engine Engine
}

// engineConfigs lists the engine configurations, the tree reference
// first. Every later row must match the first bit for bit.
var engineConfigs = []engineConfig{
	{"tree", EngineTree},
	{"compiled", EngineCompiled},
}

// EngineConfigs is engineConfigs for the external test package.
var EngineConfigs = engineConfigs

// opcodeNames names every opcode in compile.go's list, opNop through
// opOutputVar.
var opcodeNames = [...]string{
	opNop:        "opNop",
	opLoadK:      "opLoadK",
	opMove:       "opMove",
	opBin:        "opBin",
	opInputLen:   "opInputLen",
	opInputRem:   "opInputRem",
	opGlobalGet:  "opGlobalGet",
	opGlobalSet:  "opGlobalSet",
	opCheckVar:   "opCheckVar",
	opJump:       "opJump",
	opBr:         "opBr",
	opCall:       "opCall",
	opRet:        "opRet",
	opRetVoid:    "opRetVoid",
	opAlloc:      "opAlloc",
	opRealloc:    "opRealloc",
	opFree:       "opFree",
	opLoad:       "opLoad",
	opStore:      "opStore",
	opStoreVar:   "opStoreVar",
	opStoreBytes: "opStoreBytes",
	opMemcpy:     "opMemcpy",
	opMemset:     "opMemset",
	opReadInput:  "opReadInput",
	opOutput:     "opOutput",
	opOutputVar:  "opOutputVar",
}

// DiffCorpus is the in-package differential corpus: the programs
// vm_test.go, jit_test.go, hook_backend_test.go, threads_test.go and
// encoded_call_bench_test.go run on every engine configuration.
func DiffCorpus() []*Program {
	return []*Program{
		diffProgArith(), diffProgHeap(), diffProgCalls(), diffProgCrash(),
		ccidProgram(), pinProgram(8), hotProgram(8), hookProgram(),
		serverProgram(), encodedCallProgram(8), encodedCallDenseProgram(8),
	}
}

// UnreachedOpcodes compiles every program in ps and names each opcode
// and fusion mark that none of them emits, in opcode order.
func UnreachedOpcodes(ps []*Program) ([]string, error) {
	var ops [len(opcodeNames)]bool
	fuses := make(map[fuseKind]bool)
	for _, p := range ps {
		c, err := compile(p, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		for _, ins := range c.code {
			if int(ins.op) >= len(ops) {
				return nil, fmt.Errorf("%s: opcode %d missing from opcodeNames", p.Name, ins.op)
			}
			ops[ins.op] = true
			fuses[ins.fuse] = true
		}
	}
	var missing []string
	for op, seen := range ops {
		if !seen {
			missing = append(missing, opcodeNames[op])
		}
	}
	for k, name := range []string{fuseBr: "fuseBr", fuseJump: "fuseJump"} {
		if k != int(fuseNone) && !fuses[fuseKind(k)] {
			missing = append(missing, name)
		}
	}
	return missing, nil
}
