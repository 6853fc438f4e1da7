package patch

import (
	"errors"
	"strings"
	"testing"

	"heaptherapy/internal/heapsim"
)

// failAfterWriter errors once n bytes have been written, so bufio's
// internal buffering cannot hide the failure.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteConfigPropagatesWriterErrors: a failing sink must surface
// as an error, not a silently truncated configuration file.
func TestWriteConfigPropagatesWriterErrors(t *testing.T) {
	s := NewSet()
	// Enough patches to overflow bufio's buffer mid-loop.
	for i := uint64(0); i < 400; i++ {
		s.Add(Patch{Fn: heapsim.FnMalloc, CCID: i, Types: TypeOverflow})
	}
	for _, limit := range []int{0, 10, 4096, 8000} {
		err := s.WriteConfig(&failAfterWriter{n: limit})
		if err == nil {
			t.Errorf("limit %d: WriteConfig succeeded on a failing writer", limit)
		} else if !strings.Contains(err.Error(), "writing config") {
			t.Errorf("limit %d: error %v lacks context", limit, err)
		}
	}
}

// failReader always errors, exercising ReadConfig's scanner-error
// path.
type failReader struct{}

func (failReader) Read([]byte) (int, error) { return 0, errors.New("io timeout") }

func TestReadConfigPropagatesReaderErrors(t *testing.T) {
	if _, err := ReadConfig(failReader{}); err == nil || !strings.Contains(err.Error(), "reading config") {
		t.Fatalf("ReadConfig = %v, want reading-config error", err)
	}
}

// TestReadConfigRejectsMalformedLines walks every parseLine rejection.
func TestReadConfigRejectsMalformedLines(t *testing.T) {
	cases := map[string]string{
		"no equals":            "FUN=malloc CCID=1 T",
		"duplicate field":      "FUN=malloc FUN=malloc CCID=1 T=OVERFLOW",
		"unknown field":        "FUN=malloc CCID=1 T=OVERFLOW X=1",
		"bad fn":               "FUN=alloca CCID=1 T=OVERFLOW",
		"bad ccid":             "FUN=malloc CCID=zebra T=OVERFLOW",
		"bad type":             "FUN=malloc CCID=1 T=SEGV",
		"missing FUN":          "CCID=1 T=OVERFLOW",
		"missing CCID":         "FUN=malloc T=OVERFLOW",
		"missing T":            "FUN=malloc CCID=1",
		"line number in error": "# comment\n\nFUN=",
	}
	for name, input := range cases {
		if _, err := ReadConfig(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadConfig accepted %q", name, input)
		}
	}
	// The line number must point at the offending line, not the count
	// of non-blank lines.
	_, err := ReadConfig(strings.NewReader("# ok\n\nFUN=bogus CCID=1 T=OVERFLOW\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %v does not name line 3", err)
	}
}

// TestMergeEdgeCases: merging nil and merging into a zero-value set.
func TestMergeEdgeCases(t *testing.T) {
	var s Set
	s.Merge(nil)
	if s.Len() != 0 {
		t.Fatal("merging nil changed the set")
	}
	other := NewSet()
	other.Add(Patch{Fn: heapsim.FnMalloc, CCID: 7, Types: TypeUninitRead})
	other.Add(Patch{Fn: heapsim.FnCalloc, CCID: 9, Types: TypeUseAfterFree})
	s.Merge(other) // s.byKey is nil here; Merge must materialize it
	if s.Len() != 2 {
		t.Fatalf("Len = %d after merge, want 2", s.Len())
	}
	if got := s.byKey[Key{Fn: heapsim.FnMalloc, CCID: 7}]; got != TypeUninitRead {
		t.Fatalf("mask = %v", got)
	}
	// Merging again must OR type masks, not duplicate keys.
	again := NewSet()
	again.Add(Patch{Fn: heapsim.FnMalloc, CCID: 7, Types: TypeOverflow})
	s.Merge(again)
	if got := s.byKey[Key{Fn: heapsim.FnMalloc, CCID: 7}]; got != TypeUninitRead|TypeOverflow {
		t.Fatalf("merged mask = %v", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after re-merge, want 2", s.Len())
	}
}

// TestTypeMaskStringUnknownBits: stray bits outside AllTypes are
// printed, not dropped — a corrupted mask must be visible in logs.
func TestTypeMaskStringUnknownBits(t *testing.T) {
	m := TypeOverflow | TypeMask(0x40)
	s := m.String()
	if !strings.Contains(s, "OVERFLOW") || !strings.Contains(s, "0x40") {
		t.Fatalf("String() = %q, want OVERFLOW and the stray bit", s)
	}
}
