package prog

// Virtual-cycle cost model. Wall-clock timing of the interpreter is
// dominated by Go dispatch overhead, which would drown the few-percent
// effects the paper measures (0.4%-5.2% on native x86). The interpreter
// therefore also accounts deterministic "virtual cycles" per operation,
// calibrated to rough x86-64 instruction budgets, and the benchmark
// harness reports overheads on this axis (wall-clock numbers are
// reported too, for reference). The model's absolute values are
// arbitrary; only ratios matter, and the ratios reproduce the paper's
// shape because they assign real relative costs: an allocation is tens
// of cycles, an encoding update is a couple, interposition adds a call
// frame, metadata maintenance adds header writes, and a patched
// allocation adds an mprotect.
const (
	// CycStmt is the base cost of any statement (dispatch+ALU).
	CycStmt = 1
	// CycCall is a function call/return pair.
	CycCall = 4
	// CycAlloc approximates a malloc-family call in the allocator.
	CycAlloc = 60
	// CycFree approximates free in the allocator.
	CycFree = 40
	// CycMemOp is the fixed cost of a load/store/copy operation.
	CycMemOp = 2
	// CycBytesPerCycle is the copy bandwidth (bytes per cycle).
	CycBytesPerCycle = 16
	// CycEncUpdatePCC is V = 3*t + c plus the restoring move.
	CycEncUpdatePCC = 3
	// CycEncUpdateAdditive is V = t + c plus the restoring move.
	CycEncUpdateAdditive = 2
	// CycEncPrologue is reading V into t at function entry.
	CycEncPrologue = 1
)

// MemOpCycles is the charge for one n-byte load, store, copy or fill:
// the fixed CycMemOp plus n bytes at CycBytesPerCycle. Every backend
// (native, defended, shadow) charges its memory operations through it,
// so the formula has one owner; it must stay inlinable, as it sits on
// every load and store (make inline-check).
func MemOpCycles(n uint64) uint64 { return CycMemOp + n/CycBytesPerCycle }
