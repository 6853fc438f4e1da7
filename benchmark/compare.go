package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// countReport is what -count writes and -compare reads.
type countReport struct {
	Header    header                      `json:"header"`
	Count     int                         `json:"count"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Runs    []resultLine              `json:"runs"`
	Metrics map[string]*metricSummary `json:"metrics"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func summarize(values []float64, unit string) *metricSummary {
	q1, q3 := quartiles(values)
	return &metricSummary{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3}
}

// spread is the interquartile range as a share of the median.
func (m *metricSummary) spread() float64 {
	if m.Median == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Median)
}

// runCount runs each selected workload count times, seeds seed..,
// each in a fresh process of this binary so that set-up and memory
// high-water marks start from nothing, and reports median and quartiles.
func runCount(cfg *config, count int, short bool, out string, stdout, stderr io.Writer) int {
	var names []string
	if cfg.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := workloadByName(cfg.workload); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	} else {
		names = []string{cfg.workload}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep := &countReport{Header: newHeader(cfg), Count: count, Workloads: map[string]*workloadSummary{}}
	rep.Header.Workload = strings.Join(names, ",")
	table, traceArg := endToEnd, "0"
	if cfg.trace {
		table, traceArg = perLayer, "1"
	}
	for _, name := range names {
		ws := &workloadSummary{Metrics: map[string]*metricSummary{}}
		rep.Workloads[name] = ws
		for i := 0; i < count; i++ {
			args := []string{"-workload", name, "-seed", strconv.FormatUint(cfg.seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(cfg.measure.Seconds(), 'g', -1, 64), "-trace", traceArg}
			if short {
				args = append(args, "-short")
			}
			var buf bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &buf, stderr
			runErr := cmd.Run()
			line, err := lastLine(buf.Bytes())
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v (%v)\n", name, cfg.seed+uint64(i), err, runErr)
				return 1
			}
			ws.Runs = append(ws.Runs, line)
			fmt.Fprintf(stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n", name, cfg.seed+uint64(i), line.Correct, line.Attempted, line.Failed)
		}
		for _, d := range table {
			var vals []float64
			for _, r := range ws.Runs {
				vals = append(vals, r.Metrics[d.name].Value)
			}
			ws.Metrics[d.name] = summarize(vals, d.unit)
		}
	}

	rep.Header.print(stdout)
	fmt.Fprintf(stdout, "%-14s %-30s %14s %14s %14s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	failed := false
	for _, name := range names {
		ws := rep.Workloads[name]
		for _, d := range table {
			m := ws.Metrics[d.name]
			fmt.Fprintf(stdout, "%-14s %-30s %14.6g %14.6g %14.6g %7.2f%% %s\n", name, d.name, m.Median, m.Q1, m.Q3, 100*m.spread(), d.unit)
		}
		for _, r := range ws.Runs {
			failed = failed || !r.Correct
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: writing %s: %v\n", out, err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// lastLine parses the result line a run prints last.
func lastLine(out []byte) (resultLine, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

// specFile is the benchmark's description, at the repository root,
// where the benchmark runs from; -compare takes its bounds from it.
const specFile = "BENCHMARK.json"

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict compares one metric of two -count reports. Metrics that
// repeat exactly for a seed must match exactly; an end-to-end metric is
// worse or better when its median moved past the bound, unresolved when
// either side's spread exceeds the bound (unless every run of one side
// beats every run of the other), and within bound otherwise. Per-layer
// timings have no bound and are shown for information.
func verdict(d metricDef, bound float64, hasBound bool, base, cur *metricSummary) string {
	if d.det {
		if fmt.Sprint(base.Values) == fmt.Sprint(cur.Values) {
			return "equal"
		}
		return "changed"
	}
	if !hasBound || base.Median == 0 {
		return "info"
	}
	worse := (cur.Median - base.Median) / math.Abs(base.Median)
	if d.better == "higher" {
		worse = -worse
	}
	if max(base.spread(), cur.spread()) > bound {
		switch {
		case disjoint(d, base.Values, cur.Values):
			return "better"
		case disjoint(d, cur.Values, base.Values):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > bound:
		return "better"
	}
	return "within bound"
}

// disjoint reports whether every value of b is better than every value
// of a.
func disjoint(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (d.better == "lower" && y >= x) || (d.better == "higher" && y <= x) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// runCompare prints one row per workload and metric present in both
// reports, with the base, the change and the verdict.
func runCompare(oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var reps [2]countReport
	for i, path := range []string{oldPath, newPath} {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "reading %s: %v\n", path, err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "base: %s (%s)\nnew:  %s (%s)\n", oldPath, reps[0].Header.Commit, newPath, reps[1].Header.Commit)
	fmt.Fprintf(stdout, "%-14s %-30s %14s %14s %9s %8s %6s  %s\n", "workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	bad := false
	for _, w := range workloads {
		a, b := reps[0].Workloads[w.name], reps[1].Workloads[w.name]
		if a == nil || b == nil {
			continue
		}
		for _, tab := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range tab {
				base, cur := a.Metrics[d.name], b.Metrics[d.name]
				if base == nil || cur == nil {
					continue
				}
				bound, ok := bounds[d.name]
				v := verdict(d, bound, ok, base, cur)
				bad = bad || v == "worse" || v == "changed"
				change := 0.0
				if base.Median != 0 {
					change = 100 * (cur.Median - base.Median) / math.Abs(base.Median)
				}
				boundCol := "-"
				if ok {
					boundCol = fmt.Sprintf("%.0f%%", 100*bound)
				}
				fmt.Fprintf(stdout, "%-14s %-30s %14.6g %14.6g %+8.2f%% %7.2f%% %6s  %s\n",
					w.name, d.name, base.Median, cur.Median, change, 100*max(base.spread(), cur.spread()), boundCol, v)
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
