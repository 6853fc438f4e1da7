package main

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"heaptherapy/internal/campaign"
	"heaptherapy/internal/core"
	"heaptherapy/internal/mem"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/serve"
)

// specPath is BENCHMARK.json as seen from the package directory, where
// tests run.
const specPath = "../" + specFile

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against its schema and
// against the metric and workload tables the code reports.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", spec.Paths)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	type row struct{ name, unit, better string }
	check := func(kind string, got []row, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			name(m.name)
			if !unitRE.MatchString(m.unit) {
				t.Errorf("%s: unit %q does not match %v", m.name, m.unit, unitRE)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s: better is %q", m.name, m.better)
			}
			if w := want[i]; m.name != w.name || m.unit != w.unit || m.better != w.better {
				t.Errorf("%s metric %d is %v, the code reports %+v", kind, i, m, w)
			}
		}
	}
	var e2e, layers []row
	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, row{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must exist and be the largest (%v)", setupBound, maxBound)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, row{m.Name, m.Unit, m.Better})
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %q is not <module>.<metric>", m.Name)
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each run is correct and reports every metric of its table
// in BENCHMARK.json with its unit, end-to-end metrics never 0.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			if code := run([]string{"-workload", w.Name, "-seed", "3", "-seconds", "0.15", "-trace", trace, "-short"}, &out, &errb); code != 0 {
				t.Errorf("%s trace %s: exit %d\n%s%s", w.Name, trace, code, out.String(), errb.String())
				continue
			}
			line, err := lastLine(out.Bytes())
			if err != nil {
				t.Fatalf("%s trace %s: %v", w.Name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, line.Correct, line.Attempted, line.Failed)
			}
			var names []string
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					names = append(names, m.Name)
				}
			} else {
				for _, m := range spec.PerLayer {
					names = append(names, m.Name)
				}
			}
			if len(line.Metrics) != len(names) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(line.Metrics), len(names))
			}
			for _, n := range names {
				m, ok := line.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, n)
				case m.Unit != units[n]:
					t.Errorf("%s trace %s: %s unit %q, want %q", w.Name, trace, n, m.Unit, units[n])
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, n, m.Value)
				}
			}
		}
	}
}

// TestCheckersRejectPerturbed: each correctness check passes on the
// expected output and fails once any expectation is perturbed.
func TestCheckersRejectPerturbed(t *testing.T) {
	secret := []byte("nginx-session-key=hunter2")
	ok := reply{status: http.StatusOK, outcome: serve.OutcomeOK, body: []byte("...")}
	contained := reply{status: http.StatusBadGateway, outcome: serve.OutcomeContained, body: []byte("request contained by defense\n")}
	native := &prog.Result{Output: []byte("out"), Steps: 10, Cycles: 100}
	defended := func(mod func(*core.DefendedRun)) *core.DefendedRun {
		d := &core.DefendedRun{Result: &prog.Result{Output: []byte("out"), Steps: 10, Cycles: 120}}
		if mod != nil {
			mod(d)
		}
		return d
	}
	replayOf := func(mod func(*prog.Result)) *prog.Result {
		r := *native
		if mod != nil {
			mod(&r)
		}
		return &r
	}
	fault := errors.New("fault")
	cases := []struct {
		name      string
		pass      error
		perturbed []error
	}{
		{"benign", checkBenign(3, ok), []error{
			checkBenign(4, ok),
			checkBenign(3, reply{status: http.StatusOK, outcome: serve.OutcomeOK, body: []byte("..x")}),
			checkBenign(3, reply{status: http.StatusBadGateway, outcome: serve.OutcomeContained, body: []byte("...")}),
		}},
		{"contained", checkContained(contained), []error{
			checkContained(reply{status: http.StatusInternalServerError, outcome: serve.OutcomeWild}),
			checkContained(ok),
		}},
		{"no secret", checkNoSecret(ok, secret), []error{
			checkNoSecret(reply{body: append([]byte("...."), secret...)}, secret),
		}},
		{"leak request", checkServed(request{attack: true}, ok, secret), []error{
			checkServed(request{attack: true}, reply{body: secret}, secret),
			checkServed(request{attack: true, crash: true}, ok, secret),
		}},
		{"immunity", checkImmunity(true, 5*time.Millisecond, immunityLimit), []error{
			checkImmunity(false, 5*time.Millisecond, immunityLimit),
			checkImmunity(true, immunityLimit+time.Millisecond, immunityLimit),
		}},
		{"defended", checkDefended(native, defended(nil)), []error{
			checkDefended(native, defended(func(d *core.DefendedRun) { d.Result.Output = []byte("tuo") })),
			checkDefended(native, defended(func(d *core.DefendedRun) { d.Result.Steps++ })),
			checkDefended(native, defended(func(d *core.DefendedRun) { d.Result.Fault = fault })),
			checkDefended(native, defended(func(d *core.DefendedRun) { d.HeapErr = fault })),
		}},
		{"campaign", checkCampaign(&campaign.RunReport{Cases: 10}, 10), []error{
			checkCampaign(&campaign.RunReport{Cases: 9}, 10),
			checkCampaign(&campaign.RunReport{Cases: 10, FailingSeeds: 1, Failures: []campaign.Failure{{Seed: 3}}}, 10),
		}},
		{"replay", checkReplay("r", native, replayOf(nil)), []error{
			checkReplay("r", native, replayOf(func(r *prog.Result) { r.Output = nil })),
			checkReplay("r", native, replayOf(func(r *prog.Result) { r.Fault = fault })),
			checkReplay("r", native, replayOf(func(r *prog.Result) { r.Steps++ })),
			checkReplay("r", native, replayOf(func(r *prog.Result) { r.Cycles++ })),
		}},
	}
	for _, c := range cases {
		if c.pass != nil {
			t.Errorf("%s: rejected the expected output: %v", c.name, c.pass)
		}
		for i, err := range c.perturbed {
			if err == nil {
				t.Errorf("%s: perturbation %d passed", c.name, i)
			}
		}
	}
}

// TestTracedBackendNeedsOptionalInterfaces: the wrapper refuses a
// backend whose optional interfaces it could not forward faithfully.
func TestTracedBackendNeedsOptionalInterfaces(t *testing.T) {
	space, err := mem.NewSpace(mem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := prog.NewNativeBackend(space) // no PatchProber
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newTracedBackend(nb, &opSet{tr: newTracer()}); err == nil {
		t.Fatal("wrapped a backend without PatchProber")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	parent := tr.newID()
	tr.add(span{ID: parent, Name: "p", Start: 0, End: 100, Ops: []opAgg{{Name: opNames[opAlloc], Ns: 10}, {Name: opNames[opMalloc], Ns: 5}}})
	tr.add(span{Name: "c", Parent: parent, Start: 20, End: 50})
	tr.add(span{Name: "c", Parent: parent, Start: 40, End: 60})
	tr.add(span{Name: "c", Parent: parent, Start: 90, End: 120})
	// Children cover [20,60) and [90,100): 50; the backend op 10 more.
	if got := tr.selfTimes()[parent]; got != 40 {
		t.Fatalf("self time %d, want 40", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
	if m := median(v); m != 5.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestHistQuantile(t *testing.T) {
	h, other := newHist(), newHist()
	for i := 1; i <= 1000; i++ { // 0.01 .. 10 ms
		if i%2 == 0 {
			h.add(float64(i) / 100)
		} else {
			other.add(float64(i) / 100)
		}
	}
	h.merge(other)
	for _, c := range []struct{ p, want float64 }{{0.001, 0.01}, {0.5, 5}, {0.9, 9}, {0.99, 9.9}, {1, 10}} {
		if got := h.quantile(c.p); math.Abs(got-c.want)/c.want > 0.001 {
			t.Errorf("quantile(%v) = %v, want %v within 0.1%%", c.p, got, c.want)
		}
	}
	if h.n != 1000 || newHist().quantile(0.5) != 0 {
		t.Errorf("n = %d, empty quantile = %v", h.n, newHist().quantile(0.5))
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{name: "setup_s", better: "lower"}
	det := metricDef{name: "prog.steps", det: true}
	s := func(v ...float64) *metricSummary { return summarize(v, "ms") }
	for _, c := range []struct {
		d         metricDef
		base, cur *metricSummary
		want      string
	}{
		{lat, s(10, 10.1, 10.2, 9.9), s(10.3, 10.2, 10.4, 10.1), "within bound"},
		{lat, s(10, 10.1, 10.2, 9.9), s(12, 12.1, 12.2, 11.9), "worse"},
		{lat, s(10, 10.1, 10.2, 9.9), s(8, 8.1, 8.2, 7.9), "better"},
		{lat, s(10, 14, 6, 10), s(10, 13, 7, 10), "unresolved"},
		{lat, s(10, 14, 6, 10), s(5, 4, 3, 4.5), "better"},
		{det, s(1, 2), s(1, 2), "equal"},
		{det, s(1, 2), s(1, 3), "changed"},
	} {
		if got := verdict(c.d, 0.1, true, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.base.Values, c.cur.Values, got, c.want)
		}
	}
	if got := verdict(metricDef{name: "x", better: "lower"}, 0, false, s(1), s(2)); got != "info" {
		t.Errorf("unbounded metric: %s, want info", got)
	}
}
