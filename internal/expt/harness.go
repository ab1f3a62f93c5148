// Package expt implements the benchmark harness: the twenty experiments
// E1–E20 of DESIGN.md §4, each regenerating one of the paper's
// theorem-level "tables/figures" (convergence-time scaling, lower bounds,
// rule-zoo failure probabilities, adversarial self-stabilization, drift
// validation, and the extension studies E13–E20).
//
// Experiments are pure functions from (Profile, seed) to a Table; the
// Profile selects the workload scale (Quick for tests/benches, Full for
// the heavyweight EXPERIMENTS.md numbers — the committed file is the
// quick profile so CI can regenerate it; see cmd/experiments -doc).
// Replicates run on the shared internal/mc worker pool with pre-derived
// per-replicate seeds, so every table is reproducible from its seed and
// independent of the worker count.
//
// A replicate that runs to a stop condition is one core.Run, and its
// outcome is an mc.Record (rounds and a success event). runReps folds a
// row's records through mc.Agg, the fold behind sweep's CSV rows and
// pluralityd's job aggregate, so every table reads its rounds summary,
// win count and Wilson interval from one place. Experiments whose
// replicates report per-round data (E3, E8, E9, E12, E18) or the winning
// color (E17) call ParallelReps with their own result type.
package expt

import (
	"context"
	"encoding/csv"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"plurality/internal/core"
	"plurality/internal/mc"
	"plurality/internal/rng"
)

// Table is a rendered experiment result: one table (or figure series) of
// the reproduction.
type Table struct {
	ID      string
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("expt: row has %d cells, table %s has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Text renders the table with aligned columns for terminal output.
func (t *Table) Text() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as CSV (header + rows).
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.Columns)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Note)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Profile scales an experiment. Quick keeps unit tests and benchmarks
// fast; Full produces the EXPERIMENTS.md numbers.
type Profile struct {
	Name string
	// N is the base population size.
	N int64
	// Reps is the number of replicates per sweep point.
	Reps int
	// Workers bounds replicate parallelism (0 = GOMAXPROCS).
	Workers int
}

// Quick is the test/bench profile.
var Quick = Profile{Name: "quick", N: 20_000, Reps: 8}

// Full is the report profile.
var Full = Profile{Name: "full", N: 200_000, Reps: 40}

func (p Profile) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelReps evaluates f on reps independent replicates across the
// shared internal/mc worker pool. Replicate i receives a private rng
// stream derived from (seed, i) before any work is scheduled, so results
// are independent of scheduling and worker count. The returned slice is
// indexed by replicate.
func ParallelReps[T any](p Profile, reps int, seed uint64, f func(rep int, r *rng.Rand) T) []T {
	out, _ := mc.Map(context.Background(), mc.Shared(p.workers()), reps, seed, f)
	return out
}

// runReps runs reps replicates of f through ParallelReps and folds their
// records into one mc.Agg.
func runReps(p Profile, reps int, seed uint64, f func(rep int, r *rng.Rand) mc.Record) *mc.Agg {
	return mc.Aggregate(ParallelReps(p, reps, seed, f))
}

// outcome is the record of a replicate that ran to its stop condition:
// its rounds and the paper's success event, consensus on the initial
// plurality color.
func outcome(res core.Result) mc.Record {
	return mc.Record{Rounds: res.Rounds, Success: res.WonInitialPlurality}
}

// whenLeaderDoubles stops once the leading color holds 2n/k agents: the
// doubling time that Theorems 2 and 4 lower-bound from balanced starts.
func whenLeaderDoubles(n int64, k int) core.StopFunc {
	return core.WhenMPlurality(n, n-2*n/int64(k))
}

// Experiment is a registered experiment: a function from profile and seed
// to a set of result tables (most produce one table; E11 produces two).
type Experiment struct {
	ID    string
	Title string
	Run   func(p Profile, seed uint64) []*Table
}

// registry holds the experiments in display order.
var registry []Experiment

func register(id, title string, run func(p Profile, seed uint64) []*Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by numeric ID (E1, E2, …).
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool {
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

// idNum extracts the numeric part of an "E<number>" id (0 on parse error,
// which sorts malformed ids first and keeps All total).
func idNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "E"))
	return n
}

// ByID returns the experiment with the given ID, or false.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtF renders a float compactly for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }

// fmtI renders an int64.
func fmtI(v int64) string { return fmt.Sprintf("%d", v) }

// fmtWins renders an aggregate's success count as "wins/N".
func fmtWins(a *mc.Agg) string { return fmt.Sprintf("%d/%d", a.Wins, a.N) }
