package campaign

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"heaptherapy/internal/defense"
	"heaptherapy/internal/prog"
	"heaptherapy/internal/telemetry"
)

// cloneOutcome deep-copies every field the engine comparison reads.
func cloneOutcome(o *Outcome) *Outcome {
	c := *o
	if o.Result != nil {
		r := *o.Result
		r.Output = slices.Clone(r.Output)
		c.Result = &r
	}
	if o.DefenseStats != nil {
		s := *o.DefenseStats
		c.DefenseStats = &s
	}
	if s := o.Telemetry; s != nil {
		t := *s
		t.Counters = maps.Clone(s.Counters)
		t.PerShard = slices.Clone(s.PerShard)
		for i := range t.PerShard {
			t.PerShard[i].Counters = maps.Clone(s.PerShard[i].Counters)
		}
		t.Histograms = slices.Clone(s.Histograms)
		for i := range t.Histograms {
			t.Histograms[i].Buckets = slices.Clone(s.Histograms[i].Buckets)
		}
		t.Events = slices.Clone(s.Events)
		c.Telemetry = &t
	}
	c.Warnings = slices.Clone(o.Warnings)
	return &c
}

// bumpFields returns one perturbation per uint64 field of the struct
// *p points to, each adding one to that field.
func bumpFields[T any](name string, p func(*Outcome) *T) map[string]func(*Outcome) {
	out := map[string]func(*Outcome){}
	typ := reflect.TypeFor[T]()
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Uint64 {
			continue
		}
		i := i
		out[name+"."+typ.Field(i).Name] = func(o *Outcome) {
			f := reflect.ValueOf(p(o)).Elem().Field(i)
			f.SetUint(f.Uint() + 1)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// engineBase builds an outcome carrying every observable the engine
// comparison covers, from a real seed: a defended attack cell with
// telemetry events, histograms and per-shard counters, plus the shadow
// attack cell's warnings and patch text.
func engineBase(t *testing.T) *Outcome {
	t.Helper()
	g, err := Generate(7, GenConfig{Kinds: []VulnKind{OverflowRead}})
	if err != nil {
		t.Fatal(err)
	}
	rep := Oracle{Engines: []prog.Engine{prog.EngineCompiled}}.Check(g)
	var def, sh *Outcome
	for _, out := range rep.Outcomes {
		switch {
		case out.Cell.Mode == ModeDefended && out.Cell.Attack && out.Cell.Alloc == AllocHeap:
			def = out
		case out.Cell.Mode == ModeShadow && out.Cell.Attack:
			sh = out
		}
	}
	if def == nil || sh == nil {
		t.Fatal("seed has no defended or shadow attack cell")
	}
	base := cloneOutcome(def)
	base.Warnings = slices.Clone(sh.Warnings)
	base.PatchText = sh.PatchText
	tel := base.Telemetry
	if base.Result == nil || len(base.Result.Output) == 0 || len(base.Warnings) == 0 || base.PatchText == "" ||
		len(tel.Counters) == 0 || len(tel.PerShard) == 0 || len(tel.Histograms) == 0 ||
		len(tel.Histograms[0].Buckets) == 0 || len(tel.Events) == 0 {
		t.Fatalf("base outcome lacks an observable: %+v", base)
	}
	return base
}

// divergence runs the engine assertion over a and b as two engines'
// outcomes at one matrix coordinate.
func divergence(a, b *Outcome) []Failure {
	a.Cell.Engine, b.Cell.Engine = prog.EngineTree, prog.EngineCompiled
	rep := &Report{Outcomes: []*Outcome{a, b}}
	Oracle{}.assertEngines(rep)
	return rep.Failures
}

// TestEngineComparisonByValue pins the oracle's by-value engine
// comparison to the signature it replaced: perturbing any field the
// signature renders, one at a time, must be flagged as an engine
// divergence whose detail is the signature-based text, and changes
// the signature does not render must pass.
func TestEngineComparisonByValue(t *testing.T) {
	base := engineBase(t)
	if f := divergence(cloneOutcome(base), cloneOutcome(base)); len(f) != 0 {
		t.Fatalf("identical outcomes flagged: %+v", f)
	}

	anyCounter := func(m map[string]uint64) string { return sortedKeys(m)[0] }
	perturb := map[string]func(*Outcome){
		"RunErr":             func(o *Outcome) { o.RunErr += "x" },
		"Panic":              func(o *Outcome) { o.Panic += "x" },
		"Invariant":          func(o *Outcome) { o.Invariant += "x" },
		"Checks":             func(o *Outcome) { o.Checks++ },
		"Result=nil":         func(o *Outcome) { o.Result = nil },
		"Output.byte":        func(o *Outcome) { o.Result.Output[0] ^= 1 },
		"Output.len":         func(o *Outcome) { o.Result.Output = append(o.Result.Output, 0) },
		"Fault.set":          func(o *Outcome) { o.Result.Fault = errors.New(faultText(o.Result.Fault) + "x") },
		"DefenseStats=nil":   func(o *Outcome) { o.DefenseStats = nil },
		"Telemetry=nil":      func(o *Outcome) { o.Telemetry = nil },
		"Tenants":            func(o *Outcome) { o.Telemetry.Tenants++ },
		"Counters.value":     func(o *Outcome) { o.Telemetry.Counters[anyCounter(o.Telemetry.Counters)]++ },
		"Counters.key":       func(o *Outcome) { o.Telemetry.Counters["x"] = 0 },
		"Counters=nil":       func(o *Outcome) { o.Telemetry.Counters = nil },
		"Counters=empty":     func(o *Outcome) { clear(o.Telemetry.Counters) },
		"PerShard.shard":     func(o *Outcome) { o.Telemetry.PerShard[0].Shard++ },
		"PerShard.value":     func(o *Outcome) { c := o.Telemetry.PerShard[0].Counters; c[anyCounter(c)]++ },
		"PerShard.counters":  func(o *Outcome) { o.Telemetry.PerShard[0].Counters = nil },
		"PerShard.len":       func(o *Outcome) { o.Telemetry.PerShard = nil },
		"Histograms.name":    func(o *Outcome) { o.Telemetry.Histograms[0].Name += "x" },
		"Histograms.count":   func(o *Outcome) { o.Telemetry.Histograms[0].Count++ },
		"Histograms.len":     func(o *Outcome) { o.Telemetry.Histograms = o.Telemetry.Histograms[1:] },
		"Buckets.len":        func(o *Outcome) { o.Telemetry.Histograms[0].Buckets = nil },
		"EventsTotal":        func(o *Outcome) { o.Telemetry.EventsTotal++ },
		"Events.len":         func(o *Outcome) { o.Telemetry.Events = o.Telemetry.Events[1:] },
		"Warnings.text":      func(o *Outcome) { o.Warnings[0] += "x" },
		"Warnings.len":       func(o *Outcome) { o.Warnings = append(o.Warnings, "") },
		"Warnings.split":     func(o *Outcome) { o.Warnings = append([]string{"a", "b"}, o.Warnings[1:]...) },
		"PatchText":          func(o *Outcome) { o.PatchText += "x" },
		"Events.kind":        func(o *Outcome) { o.Telemetry.Events[0].Kind++ },
		"Events.tenant":      func(o *Outcome) { o.Telemetry.Events[0].Tenant++ },
		"Result.AllocsByFn0": func(o *Outcome) { o.Result.AllocsByFn[0]++ },
		"Result.AllocsByFn7": func(o *Outcome) { o.Result.AllocsByFn[7]++ },
	}
	for _, m := range []map[string]func(*Outcome){
		bumpFields("Result", func(o *Outcome) *prog.Result { return o.Result }),
		bumpFields("DefenseStats", func(o *Outcome) *defense.Stats { return o.DefenseStats }),
		bumpFields("Bucket", func(o *Outcome) *telemetry.Bucket { return &o.Telemetry.Histograms[0].Buckets[0] }),
		bumpFields("Event", func(o *Outcome) *telemetry.Event { return &o.Telemetry.Events[0] }),
	} {
		maps.Copy(perturb, m)
	}
	// Pairs where both sides change: the rendering tells a nil counter
	// map (null) from an empty one ({}), so the comparison must too.
	pairs := map[string]func(a, b *Outcome){
		"Counters empty/nil": func(a, b *Outcome) { a.Telemetry.Counters, b.Telemetry.Counters = map[string]uint64{}, nil },
		"PerShard.counters empty/nil": func(a, b *Outcome) {
			a.Telemetry.PerShard[0].Counters, b.Telemetry.PerShard[0].Counters = map[string]uint64{}, nil
		},
	}
	for name, f := range perturb {
		pairs[name] = func(_, b *Outcome) { f(b) }
	}
	for _, name := range sortedKeys(pairs) {
		a, b := cloneOutcome(base), cloneOutcome(base)
		pairs[name](a, b)
		if a.signature() == b.signature() {
			t.Fatalf("%s: the perturbation does not show in the signature", name)
		}
		f := divergence(a, b)
		if len(f) != 1 || f[0].Class != FailEngineDivergence || f[0].Cell != b.Cell.String() {
			t.Fatalf("%s: failures %+v, want one engine divergence at %s", name, f, b.Cell)
		}
		want := fmt.Sprintf("%v vs %v:\n%s\n%s", a.Cell.Engine, b.Cell.Engine, a.signature(), b.signature())
		if f[0].Detail != want {
			t.Fatalf("%s: detail\n%s\nwant\n%s", name, f[0].Detail, want)
		}
	}

	// What the signature renders alike must compare alike.
	same := map[string]func(a, b *Outcome){
		"Warnings nil/empty": func(a, b *Outcome) { a.Warnings, b.Warnings = nil, []string{} },
		"Output nil/empty":   func(a, b *Outcome) { a.Result.Output, b.Result.Output = nil, []byte{} },
		"Fault nil/nil":      func(a, b *Outcome) { a.Result.Fault, b.Result.Fault = nil, nil },
		"Fault same text":    func(a, b *Outcome) { a.Result.Fault, b.Result.Fault = errors.New("f"), errors.New("f") },
		"PerShard nil/empty": func(a, b *Outcome) { a.Telemetry.PerShard, b.Telemetry.PerShard = nil, []telemetry.ShardCounters{} },
		"Events nil/empty":   func(a, b *Outcome) { a.Telemetry.Events, b.Telemetry.Events = nil, []telemetry.Event{} },
		"Buckets nil/empty": func(a, b *Outcome) {
			a.Telemetry.Histograms[0].Buckets, b.Telemetry.Histograms[0].Buckets = nil, []telemetry.Bucket{}
		},
		"Returned": func(a, b *Outcome) { b.Result.Returned = prog.Value{Bytes: []byte{1}} },
	}
	for _, name := range sortedKeys(same) {
		a, b := cloneOutcome(base), cloneOutcome(base)
		same[name](a, b)
		if a.signature() != b.signature() {
			t.Fatalf("%s: signatures differ", name)
		}
		if f := divergence(a, b); len(f) != 0 {
			t.Fatalf("%s: flagged %+v", name, f)
		}
	}
}
