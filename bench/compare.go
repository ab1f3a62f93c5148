package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compare judges a change against its parent from paired runs:
//
//	plbench compare [-bench BENCHMARK.json] PARENT.json... -- CHANGE.json...
//
// Each file holds runs written by -json. Runs pair up per workload in the
// order given, so the parent and change files should come from alternating
// runs (parent first in half the pairs). Every workload × end-to-end
// metric gets one row with both sides' medians and quartiles and a
// verdict; a larger failed fraction on the change is flagged. The exit
// code is 1 when any metric regressed or the failed fraction rose.

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("plbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var parentFiles, changeFiles []string
	side := &parentFiles
	for _, a := range fs.Args() {
		if a == "--" {
			side = &changeFiles
			continue
		}
		*side = append(*side, a)
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "plbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(stderr, "plbench compare: %s: %v\n", *benchPath, err)
		return 2
	}
	parent, err := loadRuns(parentFiles)
	if err == nil {
		var change map[string][]result
		if change, err = loadRuns(changeFiles); err == nil {
			return printComparison(stdout, stderr, spec, parent, change)
		}
	}
	fmt.Fprintf(stderr, "plbench compare: %v\n", err)
	return 2
}

// loadRuns reads the untraced runs of every file, grouped by workload in
// file order.
func loadRuns(files []string) (map[string][]result, error) {
	out := map[string][]result{}
	for _, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if r.Trace == 0 {
				out[r.Workload] = append(out[r.Workload], r.Result)
			}
		}
	}
	return out, nil
}

func printComparison(stdout, stderr io.Writer, spec benchSpec, parent, change map[string][]result) int {
	workloads := make([]string, 0, len(parent))
	for w := range parent {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	code := 0
	fmt.Fprintf(stdout, "%-14s %-12s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "verdict")
	for _, w := range workloads {
		p, c := parent[w], change[w]
		if len(p) != len(c) || len(p) < minPairs {
			fmt.Fprintf(stderr, "plbench compare: %s: %d parent and %d change runs; need two equal sets of at least %d\n", w, len(p), len(c), minPairs)
			return 2
		}
		for _, m := range spec.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			v := verdict(pv, cv, m.Better == "higher", m.Bound)
			if v == "regressed" {
				code = 1
			}
			pq1, pm, pq3 := quartiles(pv)
			cq1, cm, cq3 := quartiles(cv)
			fmt.Fprintf(stdout, "%-14s %-12s %12.5g [%11.5g, %11.5g] %12.5g [%11.5g, %11.5g] %+7.1f%%  %s\n",
				w, m.Name, pm, pq1, pq3, cm, cq1, cq3, 100*(cm-pm)/pm, v)
		}
		if pf, cf := failedFrac(p), failedFrac(c); cf > pf {
			fmt.Fprintf(stdout, "%-14s failed_frac rose: parent %.3g, change %.3g\n", w, pf, cf)
			code = 1
		}
	}
	return code
}

func values(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// failedFrac is failed over attempted operations across runs.
func failedFrac(rs []result) float64 {
	var failed, attempted int64
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// verdict applies the paired-run rule to one metric. parent[i] and
// change[i] form pair i.
//
//   - regressed: the change's median is worse than the parent's by more
//     than bound, a share of the parent's median;
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither) and its median is better by more than the
//     parent's interquartile range;
//   - unresolved: the parent's interquartile range is wider than the
//     bound, unless every change run is better than every parent run;
//   - unchanged otherwise.
func verdict(parent, change []float64, higher bool, bound float64) string {
	better := func(a, b float64) bool { return a > b == higher && a != b }
	pq1, pm, pq3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	if better(pm, cm) && math.Abs(cm-pm) > bound*math.Abs(pm) {
		return "regressed"
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	spread := pq3 - pq1
	if 10*wins >= 9*len(parent) && better(cm, pm) && math.Abs(cm-pm) > spread {
		return "improved"
	}
	if spread > bound*math.Abs(pm) && !allBetter(change, parent, better) {
		return "unresolved"
	}
	return "unchanged"
}

// allBetter reports whether every value of a is better than every value
// of b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads match what that function reports.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
