// Command tracereport renders the JSONL telemetry traces written by
// plurality -trace, sweep -trace-dir, and pluralityd's
// GET /v1/jobs/{id}/trace into a human-readable run profile: where the
// wall time went, how fast the bias drifted, what the memory high-water
// was, and the phase segmentation of the paper's Theorem 1 proof (the
// table plurality -phases prints).
//
//	tracereport run-trace.jsonl
//	tracereport traces/*.jsonl              # per-run profiles + aggregate
//	tracereport -drift 0 grid-cell.jsonl    # summaries only, no round table
//	curl -s localhost:8080/v1/jobs/$ID/trace | tracereport -
//
// The reader is the tolerant internal/obs one: torn tails and corrupt
// lines are counted and reported, never fatal.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"plurality/internal/obs"
)

func main() {
	drift := flag.Int("drift", 10, "rows in each run's sampled drift table (0 disables it)")
	flag.Parse()
	paths := flag.Args()
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracereport [-drift N] FILE... (or - for stdin)")
		os.Exit(2)
	}
	if err := run(os.Stdout, paths, *drift); err != nil {
		fmt.Fprintln(os.Stderr, "tracereport:", err)
		os.Exit(1)
	}
}

// run reads every input, prints one profile per trace run, and closes
// with a cross-run aggregate when the inputs carried more than one run.
func run(w io.Writer, paths []string, drift int) error {
	var all []obs.Trace
	skippedTotal := 0
	for _, path := range paths {
		traces, skipped, err := readInput(path)
		if err != nil {
			return err
		}
		skippedTotal += skipped
		if len(traces) == 0 {
			fmt.Fprintf(w, "%s: no trace runs\n", path)
			continue
		}
		all = append(all, traces...)
	}
	for i, tr := range all {
		if i > 0 {
			fmt.Fprintln(w)
		}
		profile(w, tr, drift)
	}
	if len(all) > 1 {
		fmt.Fprintln(w)
		aggregate(w, all)
	}
	if skippedTotal > 0 {
		fmt.Fprintf(w, "\nwarning: %d corrupt/unknown lines skipped\n", skippedTotal)
	}
	return nil
}

// readInput parses one input's trace runs ("-" is stdin). It closes the
// file before returning, so a report over many files holds one open.
func readInput(path string) ([]obs.Trace, int, error) {
	r := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		r = f
	}
	traces, skipped, err := obs.ReadTraces(r)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return traces, skipped, nil
}

// profile prints one run's report: identity, round/wall totals, the
// ns/agent distribution over the retained rounds, memory, a sampled
// drift table showing how the configuration converged, and the phase
// table of the retained rounds.
func profile(w io.Writer, tr obs.Trace, drift int) {
	h := tr.Header
	id := make([]string, 0, 7)
	if h.Job != "" {
		id = append(id, "job="+h.Job, fmt.Sprintf("rep=%d", h.Rep))
	}
	if h.Engine != "" {
		id = append(id, "engine="+h.Engine)
	}
	if h.Rule != "" {
		id = append(id, "rule="+h.Rule)
	}
	id = append(id, fmt.Sprintf("n=%d", h.N), fmt.Sprintf("k=%d", h.K))
	if h.Seed != 0 {
		id = append(id, fmt.Sprintf("seed=%d", h.Seed))
	}
	fmt.Fprintf(w, "run:    %s\n", strings.Join(id, " "))

	sum := tr.Summary
	if sum == nil {
		// Torn file: synthesize what the round lines alone support.
		s := obs.Summary{Rounds: len(tr.Rounds), Retained: len(tr.Rounds)}
		for _, r := range tr.Rounds {
			s.WallNs += r.WallNs
		}
		if h.N > 0 && s.Rounds > 0 {
			s.NsPerAgent = float64(s.WallNs) / float64(s.Rounds) / float64(h.N)
		}
		sum = &s
		fmt.Fprintf(w, "note:   no summary line (torn trace?); totals cover retained rounds only\n")
	}
	fmt.Fprintf(w, "rounds: %d observed, %d retained, %d dropped from the ring\n",
		sum.Rounds, sum.Retained, sum.Dropped)
	perRound := float64(0)
	if sum.Rounds > 0 {
		perRound = float64(sum.WallNs) / float64(sum.Rounds)
	}
	fmt.Fprintf(w, "wall:   %s total, %s/round, %.2f ns/agent\n",
		ns(float64(sum.WallNs)), ns(perRound), sum.NsPerAgent)

	if len(tr.Rounds) > 0 {
		v := make([]float64, len(tr.Rounds))
		mean := 0.0
		for i, r := range tr.Rounds {
			v[i] = r.NsPerAgent
			mean += r.NsPerAgent
		}
		mean /= float64(len(v))
		sort.Float64s(v)
		fmt.Fprintf(w, "speed:  ns/agent min=%.2f p50=%.2f mean=%.2f p95=%.2f max=%.2f\n",
			v[0], quantile(v, 0.50), mean, quantile(v, 0.95), v[len(v)-1])
		last := tr.Rounds[len(tr.Rounds)-1]
		fmt.Fprintf(w, "final:  c_max=%d/%d bias=%d support=%d (round %d)\n",
			last.CMax, h.N, last.Bias, last.Support, last.Round)
	}
	if sum.HeapMax > 0 {
		fmt.Fprintf(w, "memory: heap high-water %s\n", bytesHuman(sum.HeapMax))
	}
	if drift > 0 && len(tr.Rounds) > 0 {
		fmt.Fprintf(w, "drift:  %8s %12s %12s %8s %10s\n", "round", "c_max", "bias", "support", "ns/agent")
		for _, i := range sampleIdx(len(tr.Rounds), drift) {
			r := tr.Rounds[i]
			fmt.Fprintf(w, "        %8d %12d %12d %8d %10.2f\n",
				r.Round, r.CMax, r.Bias, r.Support, r.NsPerAgent)
		}
	}
	fmt.Fprint(w, obs.PhaseSummary(tr.Rounds, sum.Dropped))
}

// aggregate prints the cross-run roll-up for multi-run inputs (a sweep
// cell's replicates, a traced pluralityd job).
func aggregate(w io.Writer, all []obs.Trace) {
	var rounds []float64
	var wallNs, agents float64
	for _, tr := range all {
		if tr.Summary == nil {
			continue
		}
		rounds = append(rounds, float64(tr.Summary.Rounds))
		wallNs += float64(tr.Summary.WallNs)
		agents += float64(tr.Summary.Rounds) * float64(tr.Header.N)
	}
	fmt.Fprintf(w, "aggregate: %d runs\n", len(all))
	if len(rounds) == 0 {
		return
	}
	sort.Float64s(rounds)
	mean := 0.0
	for _, r := range rounds {
		mean += r
	}
	mean /= float64(len(rounds))
	fmt.Fprintf(w, "rounds:    min=%.0f p50=%.0f mean=%.1f max=%.0f\n",
		rounds[0], quantile(rounds, 0.50), mean, rounds[len(rounds)-1])
	if agents > 0 {
		fmt.Fprintf(w, "speed:     %.2f ns/agent over %s of simulation\n",
			wallNs/agents, ns(wallNs))
	}
}

// sampleIdx picks up to k evenly spaced indices from [0, n), always
// including the first and last.
func sampleIdx(n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, i*(n-1)/(k-1))
	}
	return out
}

// quantile reads the q-quantile from an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// ns renders a nanosecond quantity with an adaptive unit.
func ns(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fµs", v/1e3)
	}
	return fmt.Sprintf("%.0fns", v)
}

// bytesHuman renders a byte count with an adaptive binary unit.
func bytesHuman(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(v)/(1<<10))
	}
	return fmt.Sprintf("%d B", v)
}
