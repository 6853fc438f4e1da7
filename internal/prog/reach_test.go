package prog_test

import (
	"testing"

	"heaptherapy/internal/prog"
	"heaptherapy/internal/progtext"
	"heaptherapy/internal/vuln"
)

// TestCorpusReachesEveryOpcode is the static half of the differential
// suites' reach check: compiled, the prog differential corpus — the
// in-package programs, the Table II corpus, the quickened-shape rows
// and FuzzVMvsTree's literal seeds — emits every opcode and every
// fusion mark at least once, so tree-vs-compiled agreement covers each
// of them.
func TestCorpusReachesEveryOpcode(t *testing.T) {
	corpus := prog.DiffCorpus()
	for _, c := range vuln.Named() {
		corpus = append(corpus, c.Program)
	}
	for _, src := range append(append([]string{}, fuzzLiterals...), shapeSources()...) {
		p, err := progtext.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, p)
	}
	missing, err := prog.UnreachedOpcodes(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("differential corpus never emits %v", missing)
	}
}

func shapeSources() []string {
	var out []string
	for _, s := range quickenedShapes {
		out = append(out, s.src)
	}
	return out
}
