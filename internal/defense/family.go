// Policy families: the defense layer is organized as a table of
// function hooks — one entry per defense family — so alternative heap
// defenses from the literature run over the same mem/heapsim substrate
// and through the same Defender/Backend seams (Reset, SwapSharedTable,
// telemetry, cycle accounting) as the HeapTherapy+ patch-table policy.
//
// The table mirrors the gosb BackendConfig idiom: a compact enum
// indexes a fixed array of per-family function pointers, selected once
// at construction; the hot paths pay one pointer-indirect call (and,
// for families without a hook, nothing at all — the access hook is nil
// for HT, keeping its load/store fast path untouched).
//
// Families:
//
//   - FamilyHT (default): HeapTherapy+'s targeted code-less patches —
//     {FUN, CCID} patch-table lookup on every allocation, S1–S4 buffer
//     structures, guard pages, deferred free, zero-fill. Only buffers
//     named by a patch pay for enhancement.
//   - FamilyShadowBound: per-object bounds metadata ahead of every
//     pointer plus a live-interval index consulted on every memory
//     access (ShadowBound-style). Spatial violations fault at the
//     first out-of-bounds byte; no guard pages, no patch consulting.
//   - FamilyMESH: memory-efficient safe layout (MESH-style) —
//     segregated size classes, zero-fill on every allocation, and
//     delayed reuse of every freed block through the FIFO quarantine.
//     Temporal violations are survived, not faulted; no guard pages.
package defense

import (
	"errors"
	"fmt"
	"strings"

	"heaptherapy/internal/heapsim"
)

// Family selects the defense policy a Defender runs. The zero value is
// FamilyHT, so existing construction sites keep HeapTherapy+ behavior
// without change.
type Family uint8

// Families.
const (
	// FamilyHT is HeapTherapy+'s patch-table defense (the default).
	FamilyHT Family = iota
	// FamilyShadowBound checks per-object bounds on every access.
	FamilyShadowBound
	// FamilyMESH segregates size classes and delays all reuse.
	FamilyMESH

	numFamilies
)

func (f Family) String() string {
	switch f {
	case FamilyHT:
		return "ht"
	case FamilyShadowBound:
		return "shadowbound"
	case FamilyMESH:
		return "mesh"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// AllFamilies lists every policy family in declaration order.
func AllFamilies() []Family {
	return []Family{FamilyHT, FamilyShadowBound, FamilyMESH}
}

// ParseFamily resolves a -policy flag value. "all" is rejected here —
// callers that accept family lists (htp-fuzz) handle it themselves.
func ParseFamily(s string) (Family, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "ht", "heaptherapy", "heaptherapy+":
		return FamilyHT, nil
	case "shadowbound", "sb", "bounds":
		return FamilyShadowBound, nil
	case "mesh":
		return FamilyMESH, nil
	default:
		return 0, fmt.Errorf("defense: unknown policy family %q (ht, shadowbound, or mesh)", s)
	}
}

// ErrOutOfBounds reports an access rejected by a per-object bounds
// check: the ShadowBound policy's spatial containment firing. Engines
// surface it as Result.Fault exactly like a guard-page SIGSEGV.
var ErrOutOfBounds = errors.New("defense: out-of-bounds access")

// IsContainmentFault reports whether err is a fault the defense raised
// DELIBERATELY to stop an attack — a bounds-check rejection or a
// double-free abort — as opposed to a wild fault that escaped it.
// Guard-page hits are not classified here: they are ordinary mem
// faults whose address must be checked against the space's protection
// (see the serve front-end's classifier).
func IsContainmentFault(err error) bool {
	return errors.Is(err, ErrOutOfBounds) || errors.Is(err, ErrDoubleFree)
}

// Containment is one family's documented per-vulnerability guarantee
// matrix: true means the family contains that campaign kind (no secret
// leak, no sentinel clobber — by fault or by construction), false is a
// documented expected miss (the campaign runs those cells record-only,
// never silently skipped). Field names match the campaign's VulnKind
// declaration order.
type Containment struct {
	OverflowRead  bool
	OverflowWrite bool
	UnderflowRead bool
	UAFRead       bool
	UAFWrite      bool
	DoubleFree    bool
	UninitRead    bool
}

// Containment returns the family's guarantee matrix. The arguments,
// cell by cell, live in DESIGN.md §16; the campaign's cross-family
// differential suite asserts every `true` and documents every `false`.
//
//   - HT contains all seven kinds, but only for allocation sites named
//     by a patch (the campaign loads the analysis-generated patches, so
//     all cells are armed).
//   - ShadowBound contains every spatial kind by faulting at the first
//     out-of-bounds byte, and double free via its live-object index. It
//     misses temporal kinds whose dangling pointer lands inside a
//     recycled live object (the campaign's UAF gadgets re-allocate the
//     same block), and uninitialized reads (in-bounds by definition).
//   - MESH contains temporal kinds (quarantined blocks are never
//     recycled into new objects, so dangling accesses see dead memory),
//     double free (the quarantined block's marked metadata survives
//     until eviction), uninitialized reads (every allocation is
//     zero-filled), and shallow underflow (absorbed by the metadata
//     word). It has no spatial defense: overflow cells are expected
//     misses that may corrupt neighboring heap state.
func (f Family) Containment() Containment {
	switch f {
	case FamilyShadowBound:
		return Containment{
			OverflowRead:  true,
			OverflowWrite: true,
			UnderflowRead: true,
			DoubleFree:    true,
		}
	case FamilyMESH:
		return Containment{
			UnderflowRead: true,
			UAFRead:       true,
			UAFWrite:      true,
			DoubleFree:    true,
			UninitRead:    true,
		}
	default:
		return Containment{
			OverflowRead:  true,
			OverflowWrite: true,
			UnderflowRead: true,
			UAFRead:       true,
			UAFWrite:      true,
			DoubleFree:    true,
			UninitRead:    true,
		}
	}
}

// policyOps is one family's hook table. Every hook receives the
// Defender, whose shared machinery (underlying allocator, space, cycle
// accumulator, statistics, telemetry, deferred-free queue, patch
// table) the hooks compose differently per family.
type policyOps struct {
	// allocate services malloc/calloc/memalign (and the allocating
	// half of realloc) after the shared entry bookkeeping.
	allocate func(d *Defender, fn heapsim.AllocFn, ccid, size, align uint64, isRealloc bool) (uint64, error)
	// free services free() after the nil-pointer check.
	free func(d *Defender, user, ccid uint64) error
	// realloc services a non-nil realloc.
	realloc func(d *Defender, ccid, user, size uint64) (uint64, error)
	// usable reports a live buffer's user size.
	usable func(d *Defender, user uint64) (uint64, error)
	// access validates one memory access before it reaches the space;
	// nil disables per-access checking entirely (the Backend's
	// load/store fast path stays one nil-check away from undefended).
	access func(d *Defender, addr, n, ccid uint64) error
	// reset clears family-private state on Defender.Reset; nil when
	// the family keeps none beyond the shared queue.
	reset func(d *Defender)
}

// policies is the family table, indexed by Family.
var policies = [numFamilies]policyOps{
	FamilyHT: {
		allocate: htAllocate,
		free:     htFree,
		realloc:  htRealloc,
		usable:   htUsableSize,
	},
	FamilyShadowBound: {
		allocate: sbAllocate,
		free:     sbFree,
		realloc:  genericRealloc,
		usable:   sbUsableSize,
		access:   sbAccess,
		reset:    sbReset,
	},
	FamilyMESH: {
		allocate: meshAllocate,
		free:     meshFree,
		realloc:  genericRealloc,
		usable:   htUsableSize, // same guard-free metadata layout
	},
}

// genericRealloc is the allocate-copy-free path shared by the policies
// whose metadata does not support in-place growth (all of them; HT has
// its own variant that additionally re-protects guard pages).
func genericRealloc(d *Defender, ccid, user, size uint64) (uint64, error) {
	old, err := d.ops.usable(d, user)
	if err != nil {
		return 0, err
	}
	newUser, err := d.allocate(heapsim.FnMalloc, ccid, size, 0, true)
	if err != nil {
		return 0, err
	}
	n := old
	if size < n {
		n = size
	}
	if err := d.space.RawMemmove(newUser, user, n); err != nil {
		return 0, fmt.Errorf("defense: realloc copy: %w", err)
	}
	if err := d.FreeCtx(user, ccid); err != nil {
		return 0, fmt.Errorf("defense: realloc free: %w", err)
	}
	d.stats.Frees-- // internal bookkeeping, not a user free
	return newUser, nil
}

// Additional virtual-cycle costs of the non-HT policies, in the same
// scale as the HT constants (defense.go): the bounds index pays a
// binary search per access and an ordered insert per allocation; the
// segregated-class policy pays a table round-up per allocation plus
// the zero-fill bandwidth it forces on every buffer.
const (
	cycBoundsCheck  = 2
	cycBoundsInsert = 6
	cycClassRound   = 1
)
