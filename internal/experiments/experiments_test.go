package experiments

import (
	"reflect"
	"strings"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/workload"
)

var quick = Config{Quick: true, Scale: 100_000}

func TestEncodingOverheadShape(t *testing.T) {
	r, err := EncodingOverhead(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: FCS costs the most, each optimization
	// reduces it, and all overheads are small positive percentages.
	fcs := r.Average[encoding.SchemeFCS]
	tcs := r.Average[encoding.SchemeTCS]
	slim := r.Average[encoding.SchemeSlim]
	incr := r.Average[encoding.SchemeIncremental]
	t.Logf("encoding overhead: FCS=%.3f%% TCS=%.3f%% Slim=%.3f%% Incr=%.3f%%", fcs, tcs, slim, incr)
	if !(fcs >= tcs && tcs >= slim && slim >= incr) {
		t.Errorf("ordering violated: FCS=%.3f TCS=%.3f Slim=%.3f Incr=%.3f", fcs, tcs, slim, incr)
	}
	if fcs <= 0 {
		t.Errorf("FCS overhead %.3f%%, want > 0", fcs)
	}
	if incr < 0 {
		t.Errorf("Incremental overhead %.3f%%, want >= 0", incr)
	}
	if r.Updates[encoding.SchemeFCS] < r.Updates[encoding.SchemeIncremental] {
		t.Error("FCS executed fewer updates than Incremental")
	}
	if !strings.Contains(r.Render(), "AVERAGE") {
		t.Error("render missing average row")
	}
}

func TestTableIIIShape(t *testing.T) {
	r, err := TableIII(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(r.Rows))
	}
	for name, row := range r.Rows {
		if row[encoding.SchemeFCS] < row[encoding.SchemeTCS] ||
			row[encoding.SchemeTCS] < row[encoding.SchemeSlim] ||
			row[encoding.SchemeSlim] < row[encoding.SchemeIncremental] {
			t.Errorf("%s: ordering violated: %v", name, row)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "400.perlbench") {
		t.Error("render missing benchmark row")
	}
}

func TestFigure8Shape(t *testing.T) {
	r, err := Figure8(quick)
	if err != nil {
		t.Fatal(err)
	}
	ip := r.Average["interpose"]
	p0 := r.Average["patch0"]
	p1 := r.Average["patch1"]
	p5 := r.Average["patch5"]
	t.Logf("figure 8: interpose=%.2f%% patch0=%.2f%% patch1=%.2f%% patch5=%.2f%%", ip, p0, p1, p5)
	if !(ip <= p0 && p0 <= p1 && p1 <= p5) {
		t.Errorf("deployment overheads out of order: %.2f %.2f %.2f %.2f", ip, p0, p1, p5)
	}
	if ip <= 0 {
		t.Errorf("interposition overhead %.2f%%, want > 0", ip)
	}
	if p5 > 30 {
		t.Errorf("five-patch overhead %.2f%%, want small (paper: 5.2%%)", p5)
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := Figure9(quick)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("figure 9: average memory overhead %.2f%%", r.Average)
	if r.Average <= 0 {
		t.Errorf("memory overhead %.2f%%, want > 0 (metadata costs something)", r.Average)
	}
	if r.Average > 40 {
		t.Errorf("memory overhead %.2f%%, want modest (paper: 4.3%%)", r.Average)
	}
}

func TestTableIIAllDefeated(t *testing.T) {
	r, err := TableII(Config{}) // full corpus
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 30 {
		t.Fatalf("rows = %d, want 30", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !row.Defeated() {
			t.Errorf("%s: not fully handled: %+v", row.Name, row)
		}
		if !row.Detected.Has(row.Expected) {
			t.Errorf("%s: detected %v, want >= %v", row.Name, row.Detected, row.Expected)
		}
	}
	if !strings.Contains(r.Render(), "30/30") {
		t.Errorf("render does not report 30/30:\n%s", r.Render())
	}
}

func TestTableIVCounts(t *testing.T) {
	r, err := TableIV(quick)
	if err != nil {
		t.Fatal(err)
	}
	// bzip2's tiny counts are preserved unscaled.
	if got := r.Executed["401.bzip2"]; got[1] != 0 || got[2] != 0 {
		t.Errorf("bzip2 executed calloc/realloc = %d/%d, want 0/0", got[1], got[2])
	}
	perl := r.Executed["400.perlbench"]
	if perl[0] == 0 || perl[2] == 0 {
		t.Errorf("perlbench executed malloc/realloc = %v, want both nonzero", perl)
	}
	if perl[1] != 0 {
		t.Errorf("perlbench executed calloc = %d, want 0 per Table IV", perl[1])
	}
}

func TestServicesShape(t *testing.T) {
	r, err := Services(quick)
	if err != nil {
		t.Fatal(err)
	}
	nginx := r.Average["nginx"]
	mysql := r.Average["mysql"]
	t.Logf("services: nginx=%.2f%% mysql=%.2f%%", nginx, mysql)
	if nginx <= 0 {
		t.Errorf("nginx overhead %.2f%%, want > 0", nginx)
	}
	if mysql >= nginx {
		t.Errorf("mysql overhead %.2f%% >= nginx %.2f%%; paper finds mysql negligible", mysql, nginx)
	}
	if nginx > 25 {
		t.Errorf("nginx overhead %.2f%%, want low single digits (paper: 4.2%%)", nginx)
	}
}

// TestServicesRenderDeterministic pins the average rows to measurement
// order; Go randomizes map iteration, so rendering must not range over
// the Average map.
func TestServicesRenderDeterministic(t *testing.T) {
	r := &ServicesResult{
		Rows: []ServiceRow{
			{Service: "nginx", Concurrency: 20, OverheadPct: 4},
			{Service: "mysql", Concurrency: 20, OverheadPct: 1},
		},
		Average: map[string]float64{"nginx": 4, "mysql": 1},
	}
	want := r.Render()
	if strings.Index(want, "nginx    AVERAGE") > strings.Index(want, "mysql    AVERAGE") {
		t.Fatalf("average rows out of measurement order:\n%s", want)
	}
	for i := 0; i < 50; i++ {
		if got := r.Render(); got != want {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestAblationMonotonic(t *testing.T) {
	r, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatal("too few quota rows")
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Evictions > r.Rows[i-1].Evictions {
			t.Errorf("larger quota evicted more: %+v then %+v", r.Rows[i-1], r.Rows[i])
		}
	}
}

func TestGlobalGuardBaseline(t *testing.T) {
	r, err := GlobalGuardBaseline(quick)
	if err != nil {
		t.Fatal(err)
	}
	global, targeted := r.Global, r.Targeted
	t.Logf("guard-page policy: global=%.1f%% targeted=%.1f%%", global, targeted)
	if targeted >= global {
		t.Errorf("targeted guarding (%.1f%%) not cheaper than global (%.1f%%)", targeted, global)
	}
	if global < 5*targeted {
		t.Errorf("global guarding only %.1fx targeted; paper calls it prohibitively expensive",
			global/targeted)
	}
}

func TestMedianCCIDPatchesCount(t *testing.T) {
	b := quick
	_ = b
	r, err := Figure8(Config{Quick: true, Scale: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// patch5 must differ from patch0 on at least one benchmark (the
	// patches actually match allocations).
	same := true
	for name := range r.PerBench {
		if r.PerBench[name]["patch5"] != r.PerBench[name]["patch0"] {
			same = false
		}
	}
	if same {
		t.Error("five patches changed nothing on any benchmark; median-CCID selection broken?")
	}
}

// TestProfileRankingOrder: the ranking Figure 8's median window
// indexes is strictly ascending by (count, CCID, FUN), so contexts that
// tie on count and CCID are ordered by allocation function rather than
// by map order, and two profiling runs rank identically.
func TestProfileRankingOrder(t *testing.T) {
	cfg := Config{Quick: true}
	for _, b := range workload.SpecBenchmarks()[:4] {
		p, _, err := b.Program(cfg.programConfig())
		if err != nil {
			t.Fatal(err)
		}
		coder, err := coderFor(p, encoding.SchemeIncremental)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := profileCCIDs(p, coder)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) == 0 {
			t.Fatalf("%s: empty profile", b.Name)
		}
		for i := 1; i < len(ranked); i++ {
			a, c := ranked[i-1], ranked[i]
			if a.Count > c.Count || a.Count == c.Count && (a.Key.CCID > c.Key.CCID ||
				a.Key.CCID == c.Key.CCID && a.Key.Fn >= c.Key.Fn) {
				t.Fatalf("%s: rank %d %+v not before rank %d %+v", b.Name, i-1, a, i, c)
			}
		}
		again, err := profileCCIDs(p, coder)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ranked, again) {
			t.Errorf("%s: re-profiling ranked differently", b.Name)
		}
	}
}

func TestConcurrentServicesShape(t *testing.T) {
	r, err := ConcurrentServices(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (quick: one thread count per service)", len(r.Rows))
	}
	var nginx, mysql float64
	for _, row := range r.Rows {
		if row.OverheadPct < 0 {
			t.Errorf("%s x%d overhead %.2f%%, want >= 0", row.Service, row.Threads, row.OverheadPct)
		}
		switch row.Service {
		case "nginx":
			nginx = row.OverheadPct
		case "mysql":
			mysql = row.OverheadPct
		}
	}
	t.Logf("concurrent services: nginx=%.2f%% mysql=%.2f%%", nginx, mysql)
	if mysql >= nginx {
		t.Errorf("mysql overhead %.2f%% >= nginx %.2f%% under threads", mysql, nginx)
	}
}

func TestStackOffsetBaselineFails(t *testing.T) {
	r, err := StackOffsetBaseline(quick)
	if err != nil {
		t.Fatal(err)
	}
	// On realistic graphs the stack-offset technique must show a
	// substantial failure rate somewhere (the paper cites 27%), while
	// the encodings in this package are verified collision-free.
	var worst float64
	for _, row := range r.Rows {
		if row.FailurePct > worst {
			worst = row.FailurePct
		}
		if row.FailurePct < 0 || row.FailurePct > 100 {
			t.Errorf("%s: failure %.1f%% out of range", row.Benchmark, row.FailurePct)
		}
	}
	t.Logf("stack-offset worst-case decode failure: %.1f%%", worst)
	if worst < 10 {
		t.Errorf("worst failure rate %.1f%%, expected double digits on dense graphs", worst)
	}
	if !strings.Contains(r.Render(), "AVERAGE") {
		t.Error("render missing average")
	}
}

func TestPatchScalingIsFlat(t *testing.T) {
	r, err := PatchScaling(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatal("too few rows")
	}
	base := r.Rows[0].CyclesPerPair
	for _, row := range r.Rows {
		// Open addressing at load factor <= 0.5 occasionally probes a
		// second slot, so allow 15%; O(n) behaviour would blow far past
		// that across four orders of magnitude.
		if row.CyclesPerPair > base*1.15 || row.CyclesPerPair < base*0.85 {
			t.Errorf("cost at %d patches = %.1f cycles, base %.1f: lookup is not O(1)",
				row.Patches, row.CyclesPerPair, base)
		}
	}
	t.Logf("patch scaling: %v", r.Rows)
}
