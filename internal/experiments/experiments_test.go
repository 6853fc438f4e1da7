package experiments

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"heaptherapy/internal/encoding"
	"heaptherapy/internal/patch"
	"heaptherapy/internal/workload"
)

var quick = Config{Quick: true, Scale: 100_000}

// metric reads a named metric, failing the test when it is missing.
func metric(t *testing.T, r *Result, key string) float64 {
	t.Helper()
	v, ok := r.Metrics[key]
	if !ok {
		t.Fatalf("no metric %q", key)
	}
	return v
}

// rowsWith returns, in increasing numeric order, the numeric row labels
// of every metric named <row>/<column>.
func rowsWith(t *testing.T, r *Result, column string) []uint64 {
	t.Helper()
	var rows []uint64
	for key := range r.Metrics {
		label, ok := strings.CutSuffix(key, "/"+column)
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(label, 10, 64)
		if err != nil {
			t.Fatalf("metric %q: row label is not a number", key)
		}
		rows = append(rows, n)
	}
	slices.Sort(rows)
	return rows
}

func TestEncodingOverheadShape(t *testing.T) {
	r, err := EncodingOverhead(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: FCS costs the most, each optimization
	// reduces it, and all overheads are small positive percentages.
	fcs := metric(t, r, "average/fcs_pct")
	tcs := metric(t, r, "average/tcs_pct")
	slim := metric(t, r, "average/slim_pct")
	incr := metric(t, r, "average/incremental_pct")
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
	if metric(t, r, "total/fcs_updates") < metric(t, r, "total/incremental_updates") {
		t.Error("FCS executed fewer updates than Incremental")
	}
	if !strings.Contains(r.Text, "AVERAGE") {
		t.Error("render missing average row")
	}
}

func TestTableIIIShape(t *testing.T) {
	r, err := TableIII(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != 12*len(encoding.AllSchemes()) {
		t.Fatalf("metrics = %d, want 12 rows of %d schemes", len(r.Metrics), len(encoding.AllSchemes()))
	}
	for _, b := range workload.SpecBenchmarks() {
		fcs := metric(t, r, b.Name+"/fcs_pct")
		tcs := metric(t, r, b.Name+"/tcs_pct")
		slim := metric(t, r, b.Name+"/slim_pct")
		incr := metric(t, r, b.Name+"/incremental_pct")
		if fcs < tcs || tcs < slim || slim < incr {
			t.Errorf("%s: ordering violated: FCS=%.2f TCS=%.2f Slim=%.2f Incr=%.2f", b.Name, fcs, tcs, slim, incr)
		}
	}
	if !strings.Contains(r.Text, "400.perlbench") {
		t.Error("render missing benchmark row")
	}
}

func TestFigure8Shape(t *testing.T) {
	r, err := Figure8(quick)
	if err != nil {
		t.Fatal(err)
	}
	ip := metric(t, r, "average/interpose_pct")
	p0 := metric(t, r, "average/patch0_pct")
	p1 := metric(t, r, "average/patch1_pct")
	p5 := metric(t, r, "average/patch5_pct")
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
	avg := metric(t, r, "average/sampled_avg_pct")
	t.Logf("figure 9: average memory overhead %.2f%%", avg)
	if avg <= 0 {
		t.Errorf("memory overhead %.2f%%, want > 0 (metadata costs something)", avg)
	}
	if avg > 40 {
		t.Errorf("memory overhead %.2f%%, want modest (paper: 4.3%%)", avg)
	}
}

func TestTableIIAllDefeated(t *testing.T) {
	r, err := TableII(Config{}) // full corpus
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(t, r, "programs"); got != 30 {
		t.Fatalf("programs = %v, want 30", got)
	}
	var names []string
	for key := range r.Metrics {
		if name, ok := strings.CutSuffix(key, "/patches"); ok {
			names = append(names, name)
		}
	}
	if len(names) != 30 {
		t.Fatalf("rows = %d, want 30", len(names))
	}
	for _, name := range names {
		native := metric(t, r, name+"/attack_native")
		defended := metric(t, r, name+"/attack_defended")
		patches := metric(t, r, name+"/patches")
		benign := metric(t, r, name+"/benign_ok")
		if native != 1 || defended != 0 || patches <= 0 || benign != 1 {
			t.Errorf("%s: not fully handled: attack native %v, defended %v, %v patches, benign ok %v",
				name, native, defended, patches, benign)
		}
		found := patch.TypeMask(metric(t, r, name+"/types_found"))
		expected := patch.TypeMask(metric(t, r, name+"/types_expected"))
		if !found.Has(expected) {
			t.Errorf("%s: detected %v, want >= %v", name, found, expected)
		}
	}
	if got := metric(t, r, "defeated"); got != 30 {
		t.Errorf("defeated = %v, want 30", got)
	}
	if !strings.Contains(r.Text, "30/30") {
		t.Errorf("render does not report 30/30:\n%s", r.Text)
	}
}

func TestTableIVCounts(t *testing.T) {
	r, err := TableIV(quick)
	if err != nil {
		t.Fatal(err)
	}
	// bzip2's tiny counts are preserved unscaled.
	if c, re := metric(t, r, "401.bzip2/calloc_run"), metric(t, r, "401.bzip2/realloc_run"); c != 0 || re != 0 {
		t.Errorf("bzip2 executed calloc/realloc = %v/%v, want 0/0", c, re)
	}
	if m, re := metric(t, r, "400.perlbench/malloc_run"), metric(t, r, "400.perlbench/realloc_run"); m == 0 || re == 0 {
		t.Errorf("perlbench executed malloc/realloc = %v/%v, want both nonzero", m, re)
	}
	if c := metric(t, r, "400.perlbench/calloc_run"); c != 0 {
		t.Errorf("perlbench executed calloc = %v, want 0 per Table IV", c)
	}
}

func TestServicesShape(t *testing.T) {
	r, err := Services(quick)
	if err != nil {
		t.Fatal(err)
	}
	nginx := metric(t, r, "nginx/average/overhead_pct")
	mysql := metric(t, r, "mysql/average/overhead_pct")
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
// order (nginx, then mysql) and requires two runs to agree on every
// byte of the render and every bit of the metrics.
func TestServicesRenderDeterministic(t *testing.T) {
	var runs [2]*Result
	for i := range runs {
		r, err := Services(quick)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = r
	}
	want := runs[0].Text
	if strings.Index(want, "nginx    AVERAGE") > strings.Index(want, "mysql    AVERAGE") {
		t.Fatalf("average rows out of measurement order:\n%s", want)
	}
	if runs[1].Text != want {
		t.Fatalf("render differs:\n%s\nwant:\n%s", runs[1].Text, want)
	}
	if len(runs[1].Metrics) != len(runs[0].Metrics) {
		t.Fatalf("metric count %d, then %d", len(runs[0].Metrics), len(runs[1].Metrics))
	}
	for key, v := range runs[0].Metrics {
		if math.Float64bits(runs[1].Metrics[key]) != math.Float64bits(v) {
			t.Errorf("%s = %v, then %v", key, v, runs[1].Metrics[key])
		}
	}
}

func TestAblationMonotonic(t *testing.T) {
	r, err := Ablation(quick)
	if err != nil {
		t.Fatal(err)
	}
	quotas := rowsWith(t, r, "evictions")
	if len(quotas) < 2 {
		t.Fatal("too few quota rows")
	}
	for i := 1; i < len(quotas); i++ {
		prev := metric(t, r, strconv.FormatUint(quotas[i-1], 10)+"/evictions")
		cur := metric(t, r, strconv.FormatUint(quotas[i], 10)+"/evictions")
		if cur > prev {
			t.Errorf("larger quota evicted more: quota %d evicted %v, quota %d evicted %v",
				quotas[i-1], prev, quotas[i], cur)
		}
	}
}

func TestGlobalGuardBaseline(t *testing.T) {
	r, err := GlobalGuardBaseline(quick)
	if err != nil {
		t.Fatal(err)
	}
	global, targeted := metric(t, r, "global_overhead_pct"), metric(t, r, "targeted_overhead_pct")
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
	r, err := Figure8(Config{Quick: true, Scale: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// patch5 must differ from patch0 on at least one benchmark (the
	// patches actually match allocations).
	same := true
	for _, b := range workload.SpecBenchmarks()[:4] {
		if metric(t, r, b.Name+"/patch5_pct") != metric(t, r, b.Name+"/patch0_pct") {
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
	if len(r.Metrics) != 2 {
		t.Fatalf("rows = %d, want 2 (quick: one thread count per service): %v", len(r.Metrics), r.Metrics)
	}
	for key, oh := range r.Metrics {
		if oh < 0 {
			t.Errorf("%s = %.2f%%, want >= 0", key, oh)
		}
	}
	nginx, mysql := metric(t, r, "nginx/4/overhead_pct"), metric(t, r, "mysql/4/overhead_pct")
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
	for _, b := range workload.SpecBenchmarks()[:4] {
		failure := metric(t, r, b.Name+"/decode_failures_pct")
		if failure > worst {
			worst = failure
		}
		if failure < 0 || failure > 100 {
			t.Errorf("%s: failure %.1f%% out of range", b.Name, failure)
		}
	}
	t.Logf("stack-offset worst-case decode failure: %.1f%%", worst)
	if worst < 10 {
		t.Errorf("worst failure rate %.1f%%, expected double digits on dense graphs", worst)
	}
	if !strings.Contains(r.Text, "AVERAGE") {
		t.Error("render missing average")
	}
}

func TestPatchScalingIsFlat(t *testing.T) {
	r, err := PatchScaling(quick)
	if err != nil {
		t.Fatal(err)
	}
	counts := rowsWith(t, r, "cycles_per_pair")
	if len(counts) < 2 {
		t.Fatal("too few rows")
	}
	base := metric(t, r, "0/cycles_per_pair")
	for _, n := range counts {
		// Open addressing at load factor <= 0.5 occasionally probes a
		// second slot, so allow 15%; O(n) behaviour would blow far past
		// that across four orders of magnitude.
		cycles := metric(t, r, strconv.FormatUint(n, 10)+"/cycles_per_pair")
		if cycles > base*1.15 || cycles < base*0.85 {
			t.Errorf("cost at %d patches = %.1f cycles, base %.1f: lookup is not O(1)", n, cycles, base)
		}
	}
	t.Logf("patch scaling: %v", r.Metrics)
}
