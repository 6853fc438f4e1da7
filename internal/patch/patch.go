// Package patch defines HeapTherapy+'s heap patches: the configuration
// entries that drive the online defense.
//
// A patch is the tuple {FUN, CCID, T} from Section V of the paper: FUN
// is the allocation function used to request the vulnerable buffer,
// CCID is its allocation-time calling-context ID, and T is a three-bit
// vulnerability-type mask (overflow, use after free, uninitialized
// read). Patches are "code-less": installing one changes only the
// configuration file the Online Defense Generator loads at startup.
package patch

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"heaptherapy/internal/heapsim"
)

// TypeMask is the vulnerability-type bitmask (the T field).
type TypeMask uint8

// Vulnerability type bits, matching the paper's three-bit encoding.
const (
	// TypeOverflow covers both overwrite and overread; the defense is
	// a guard page appended to the buffer.
	TypeOverflow TypeMask = 1 << iota
	// TypeUseAfterFree defers reuse through the freed-blocks FIFO.
	TypeUseAfterFree
	// TypeUninitRead zero-fills the buffer at allocation.
	TypeUninitRead
)

// AllTypes is the mask with every vulnerability bit set.
const AllTypes = TypeOverflow | TypeUseAfterFree | TypeUninitRead

// Has reports whether m includes all bits of t.
func (m TypeMask) Has(t TypeMask) bool { return m&t == t }

func (m TypeMask) String() string {
	if m == 0 {
		return "NONE"
	}
	var parts []string
	if m.Has(TypeOverflow) {
		parts = append(parts, "OVERFLOW")
	}
	if m.Has(TypeUseAfterFree) {
		parts = append(parts, "UAF")
	}
	if m.Has(TypeUninitRead) {
		parts = append(parts, "UNINIT_READ")
	}
	if extra := m &^ AllTypes; extra != 0 {
		parts = append(parts, fmt.Sprintf("TypeMask(%#x)", uint8(extra)))
	}
	return strings.Join(parts, "|")
}

// ParseTypeMask parses the String form ("OVERFLOW|UAF").
func ParseTypeMask(s string) (TypeMask, error) {
	if s == "NONE" || s == "" {
		return 0, nil
	}
	var m TypeMask
	for _, part := range strings.Split(s, "|") {
		switch part {
		case "OVERFLOW":
			m |= TypeOverflow
		case "UAF":
			m |= TypeUseAfterFree
		case "UNINIT_READ":
			m |= TypeUninitRead
		default:
			return 0, fmt.Errorf("patch: unknown vulnerability type %q", part)
		}
	}
	return m, nil
}

// Patch is one configuration entry: buffers allocated by Fn under
// calling context CCID are treated as vulnerable to Types.
type Patch struct {
	// Fn is the allocation function (FUN).
	Fn heapsim.AllocFn
	// CCID is the allocation-time calling-context ID.
	CCID uint64
	// Types is the vulnerability mask (T).
	Types TypeMask
}

func (p Patch) String() string {
	return fmt.Sprintf("FUN=%s CCID=%#x T=%s", p.Fn, p.CCID, p.Types)
}

// Key identifies the hash-table key {FUN, CCID} the online defense
// looks up on every allocation.
type Key struct {
	Fn   heapsim.AllocFn
	CCID uint64
}

// Key returns the patch's lookup key.
func (p Patch) Key() Key { return Key{Fn: p.Fn, CCID: p.CCID} }

// Set is a collection of patches, deduplicated by key: patches for the
// same {FUN, CCID} merge their type masks (a buffer can be vulnerable
// to several attacks, Section VI).
type Set struct {
	byKey map[Key]TypeMask
}

// NewSet builds a set from the given patches.
func NewSet(patches ...Patch) *Set {
	s := &Set{byKey: make(map[Key]TypeMask, len(patches))}
	for _, p := range patches {
		s.Add(p)
	}
	return s
}

// Add merges a patch into the set.
func (s *Set) Add(p Patch) {
	if s.byKey == nil {
		s.byKey = make(map[Key]TypeMask)
	}
	s.byKey[p.Key()] |= p.Types
}

// Merge folds another set into this one.
func (s *Set) Merge(other *Set) {
	if other == nil {
		return
	}
	for k, t := range other.byKey {
		if s.byKey == nil {
			s.byKey = make(map[Key]TypeMask)
		}
		s.byKey[k] |= t
	}
}

// Len returns the number of distinct patched contexts.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.byKey)
}

// Patches returns the set's contents sorted by (Fn, CCID).
func (s *Set) Patches() []Patch {
	if s == nil {
		return nil
	}
	out := make([]Patch, 0, len(s.byKey))
	for k, t := range s.byKey {
		out = append(out, Patch{Fn: k.Fn, CCID: k.CCID, Types: t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].CCID < out[j].CCID
	})
	return out
}

// WriteConfig serializes the set in the configuration-file format the
// Online Defense Generator reads: one "FUN=... CCID=... T=..." line per
// patch, '#' comments allowed.
func (s *Set) WriteConfig(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# HeapTherapy+ patch configuration"); err != nil {
		return fmt.Errorf("patch: writing config: %w", err)
	}
	for _, p := range s.Patches() {
		if _, err := fmt.Fprintln(bw, p.String()); err != nil {
			return fmt.Errorf("patch: writing config: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("patch: writing config: %w", err)
	}
	return nil
}

// ReadConfig parses a configuration file produced by WriteConfig.
func ReadConfig(r io.Reader) (*Set, error) {
	s := NewSet()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("patch: config line %d: %w", lineNo, err)
		}
		s.Add(p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("patch: reading config: %w", err)
	}
	return s, nil
}

func parseLine(line string) (Patch, error) {
	var p Patch
	seen := make(map[string]bool, 3)
	for _, field := range strings.Fields(line) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Patch{}, fmt.Errorf("malformed field %q", field)
		}
		if seen[k] {
			return Patch{}, fmt.Errorf("duplicate field %q", k)
		}
		seen[k] = true
		switch k {
		case "FUN":
			fn, err := heapsim.ParseAllocFn(v)
			if err != nil {
				return Patch{}, err
			}
			p.Fn = fn
		case "CCID":
			id, err := strconv.ParseUint(v, 0, 64)
			if err != nil {
				return Patch{}, fmt.Errorf("bad CCID %q: %w", v, err)
			}
			p.CCID = id
		case "T":
			t, err := ParseTypeMask(v)
			if err != nil {
				return Patch{}, err
			}
			p.Types = t
		default:
			return Patch{}, fmt.Errorf("unknown field %q", k)
		}
	}
	if !seen["FUN"] || !seen["CCID"] || !seen["T"] {
		return Patch{}, fmt.Errorf("line %q is missing FUN, CCID, or T", line)
	}
	if p.Types == 0 {
		return Patch{}, fmt.Errorf("patch with empty type mask")
	}
	return p, nil
}
