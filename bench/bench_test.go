package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeRun measures one workload at -scale smoke for a fraction of a
// second.
func smokeRun(t *testing.T, name string, trace bool) (result, [32]byte) {
	t.Helper()
	dir := t.TempDir()
	o := opts{workload: name, seed: 7, seconds: 0.2, trace: trace, smoke: true, dir: dir, traceDir: filepath.Join(dir, "traces")}
	var log bytes.Buffer
	res, digest, err := measure(workloads[name], o, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, log.String())
	}
	return res, digest
}

// TestSmokeWorkloads runs every workload untraced and traced: the
// untraced run reports every end-to-end metric as a positive number, the
// traced run every per-layer metric, and both runs produce the same
// record digest.
func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		res, plain := smokeRun(t, name, false)
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", name, d.name, m, d.unit)
			}
		}
		res, traced := smokeRun(t, name, true)
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(res.Metrics), len(perLayer))
		}
		if res.Metrics["trace_overhead"].Value <= 0 {
			t.Errorf("%s: no trace_overhead", name)
		}
		if plain != traced {
			t.Errorf("%s: traced digest %x differs from untraced %x", name, traced[:8], plain[:8])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 2, 3, 1}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentiles(t *testing.T) {
	got := quantiles([]float64{5, 1, 4, 2, 3}, 0.5, 0.99, 0)
	want := []float64{3, 4.96, 1}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Errorf("quantiles = %v, want %v", got, want)
		}
	}
	if q := quantiles(nil, 0.5); q[0] != 0 {
		t.Errorf("quantiles of an empty sample = %v, want 0", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestVerdict(t *testing.T) {
	tens := func(f func(i int) float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	parent := tens(func(i int) float64 { return 100 + float64(i%2) })
	cases := []struct {
		name           string
		parent, change []float64
		higher         bool
		bound          float64
		want           string
	}{
		{"clear gain", parent, tens(func(i int) float64 { return 90 }), false, 0.1, "improved"},
		{"gain on higher-is-better", parent, tens(func(i int) float64 { return 110 }), true, 0.1, "improved"},
		{"nine of ten wins", parent, tens(func(i int) float64 {
			if i == 0 {
				return 120
			}
			return 90
		}), false, 0.1, "improved"},
		{"eight of ten wins", parent, tens(func(i int) float64 {
			if i < 2 {
				return 120
			}
			return 90
		}), false, 0.3, "unchanged"},
		{"within the bound", parent, tens(func(i int) float64 { return 105 }), false, 0.1, "unchanged"},
		{"worse than the bound", parent, tens(func(i int) float64 { return 115 }), false, 0.1, "regressed"},
		{"throughput drop", parent, tens(func(i int) float64 { return 85 }), true, 0.1, "regressed"},
		{"spread wider than the bound", tens(func(i int) float64 { return 100 + 20*float64(i%2) }), tens(func(i int) float64 { return 108 }), false, 0.1, "unresolved"},
		{"wide spread but every change run better", tens(func(i int) float64 { return 100 + 20*float64(i%2) }), tens(func(i int) float64 { return 99 }), false, 0.1, "unchanged"},
	}
	for _, c := range cases {
		if got := verdict(c.parent, c.change, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareCommand runs compare over result files and checks the exit
// code and the flagged failure fraction.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, failed int64) string {
		var recs []runRecord
		for i := 0; i < 10; i++ {
			recs = append(recs, runRecord{Workload: "clique-grid", Result: result{Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"wall_s": {wall + float64(i%2)/100, "s"}}}})
		}
		path := filepath.Join(dir, name)
		if err := writeRecords(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"wall_s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parent := write("parent.json", 2, 0)
	for _, c := range []struct {
		wall   float64
		failed int64
		code   int
		want   string
	}{
		{1.5, 0, 0, "improved"},
		{2.5, 0, 1, "regressed"},
		{2, 1, 1, "failed_frac rose"},
	} {
		change := write("change.json", c.wall, c.failed)
		var out bytes.Buffer
		code := run([]string{"compare", "-bench", spec, parent, "--", change}, &out, io.Discard)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("change wall %v failed %d: exit %d, output\n%s\nwant exit %d and %q", c.wall, c.failed, code, out.String(), c.code, c.want)
		}
	}
	var errOut bytes.Buffer
	if code := run([]string{"compare", "-bench", spec, parent}, io.Discard, &errOut); code != 2 {
		t.Errorf("compare without change runs: exit %d, want 2", code)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the benchmark's metric and
// workload lists in step with BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, w := range want {
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %s %s %s", kind, i, g, w.name, w.unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, names[i])
		}
	}
}
