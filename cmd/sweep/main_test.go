package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"plurality/internal/core"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/service"
)

// testCfg is a grid small enough for unit tests that still exercises both
// engine paths: 3majority (closed-form multinomial) and 2choices
// (agent-level sampled).
func testCfg() config {
	return config{
		rules:     "3majority,2choices",
		graphs:    "complete",
		ns:        "1000",
		ks:        "2,4",
		cs:        "1",
		reps:      5,
		seed:      7,
		maxRounds: 5000,
		workers:   2,
		format:    "csv",
	}
}

func runSweep(t *testing.T, cfg config, done [][]mc.Record) string {
	t.Helper()
	cells, err := grid(cfg)
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	var buf bytes.Buffer
	if err := sweep(context.Background(), cfg, cells, &buf, done); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return buf.String()
}

// groupByJob indexes records by job name, each job's in file order.
func groupByJob(recs []mc.Record) map[string][]mc.Record {
	out := map[string][]mc.Record{}
	for _, rec := range recs {
		out[rec.Job] = append(out[rec.Job], rec)
	}
	return out
}

func TestSweepCSVShape(t *testing.T) {
	cfg := testCfg()
	out := runSweep(t, cfg, nil)
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("output is not parseable CSV: %v", err)
	}
	header := strings.Split(csvHeader, ",")
	if len(rows) == 0 || strings.Join(rows[0], ",") != csvHeader {
		t.Fatalf("header mismatch: %v", rows[0])
	}
	wantRows := 2 * 1 * 2 * 1 // rules × ns × ks × cs
	if len(rows)-1 != wantRows {
		t.Fatalf("got %d data rows, want %d", len(rows)-1, wantRows)
	}
	col := func(row []string, name string) float64 {
		for i, h := range header {
			if h == name {
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					t.Fatalf("column %s = %q is not numeric: %v", name, row[i], err)
				}
				return v
			}
		}
		t.Fatalf("no column %s", name)
		return 0
	}
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			t.Fatalf("row has %d cells, header has %d: %v", len(row), len(header), row)
		}
		lo, hi := col(row, "wilson_lo"), col(row, "wilson_hi")
		rate := col(row, "success_rate")
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("Wilson interval [%g, %g] outside [0,1] or inverted: %v", lo, hi, row)
		}
		if rate < 0 || rate > 1 {
			t.Errorf("success_rate %g outside [0,1]", rate)
		}
		if got := int(col(row, "reps")); got != testCfg().reps {
			t.Errorf("reps column = %d, want %d", got, testCfg().reps)
		}
	}
}

// TestSweepGraphGrid runs a grid across topology families resolved
// through the topo registry: the graph dimension multiplies the cells,
// non-clique cells run the CSR graph engine, and the output stays
// deterministic across worker counts (quenched graphs are derived from
// the cell name, not from scheduling).
func TestSweepGraphGrid(t *testing.T) {
	cfg := testCfg()
	cfg.rules = "3majority"
	cfg.ks = "2"
	cfg.graphs = "complete,regular:4,smallworld:4:0.1,barbell:4"
	cfg.reps = 3
	out := runSweep(t, cfg, nil)
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("unparseable CSV: %v", err)
	}
	if len(rows)-1 != 4 {
		t.Fatalf("got %d data rows, want one per graph", len(rows)-1)
	}
	for i, wantGraph := range []string{"complete", "regular:4", "smallworld:4:0.1", "barbell:4"} {
		if got := rows[i+1][1]; got != wantGraph {
			t.Errorf("row %d graph column = %q, want %q", i, got, wantGraph)
		}
	}
	cfg.workers = 1
	if runSweep(t, cfg, nil) != out {
		t.Fatal("graph grid output depends on -workers")
	}
}

func TestSweepRejectsBadGraphSpec(t *testing.T) {
	cfg := testCfg()
	cfg.graphs = "moebius"
	if _, err := grid(cfg); err == nil ||
		!strings.Contains(err.Error(), "unknown graph") {
		t.Fatalf("bad -graphs error = %v, want unknown graph", err)
	}
	cfg.graphs = "regular:3"
	cfg.ns = "999" // odd n with odd d → n·d odd
	if _, err := grid(cfg); err == nil ||
		!strings.Contains(err.Error(), "even") {
		t.Fatalf("parity error = %v, want n·d even", err)
	}
}

// TestSweepRejectsBadCells pins fail-closed input handling: each case
// used to panic or run, or failed only after writing the CSV header, and
// now fails with the JobSpec check's error before the output file is
// touched.
func TestSweepRejectsBadCells(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*config)
		want   string
	}{
		{"negative bias", func(c *config) { c.ns, c.ks, c.cs = "100", "2", "-1" }, "outside [0, n=100]"},
		{"k one", func(c *config) { c.ks = "1" }, "k must be >= 2, got 1"},
		{"k above n", func(c *config) { c.ns, c.ks = "10", "20" }, "k = 20 exceeds n = 10"},
		{"zero reps", func(c *config) { c.reps = 0 }, "replicates must be >= 1, got 0"},
		{"implicit regular", func(c *config) { c.graphs, c.graphMode = "regular:4", "implicit" }, "no implicit backend"},
		// Cells sharing a job name would share their -resume records.
		{"repeated n", func(c *config) { c.ns = "1000,1000" }, "repeats job"},
		{"c values with one bias", func(c *config) { c.cs = "1,1.0000001" }, "repeats job"},
		{"one graph spelled twice", func(c *config) { c.graphs = "gnp:0.5,gnp:0.50" }, "repeats job"},
	}
	for _, tc := range cases {
		cfg := testCfg()
		tc.mutate(&cfg)
		cfg.out = filepath.Join(t.TempDir(), "grid.csv")
		if err := os.WriteFile(cfg.out, []byte("previous\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
		if got, _ := os.ReadFile(cfg.out); string(got) != "previous\n" {
			t.Errorf("%s: output file changed to %q", tc.name, got)
		}
	}
}

// TestSweepCellIsJob pins the cross-surface contract: a one-cell JSONL
// grid is byte-identical to the records of the pluralityd job with the
// cell's spec, for a clique cell and a graph cell.
func TestSweepCellIsJob(t *testing.T) {
	for _, tc := range []struct{ rule, graph, engine string }{
		{"hplurality:3", "complete", "auto"}, // auto → sampled
		{"3majority", "regular:4", "graph"},
	} {
		cfg := testCfg()
		cfg.rules, cfg.graphs, cfg.ks, cfg.cs = tc.rule, tc.graph, "4", "0.5"
		cfg.format = "jsonl"
		got := runSweep(t, cfg, nil)

		// The cell's spec as a pluralityd client would submit it, with
		// the seed the sweep derives from the seed-free name; the second
		// Normalize sets the graph seed to it, as the daemon does.
		spec := service.JobSpec{Rule: tc.rule, Engine: tc.engine, Graph: tc.graph, N: 1000, K: 4,
			Bias: strconv.FormatInt(core.Corollary1Bias(1000, 4, 0.5), 10), Replicates: cfg.reps, MaxRounds: cfg.maxRounds}
		spec.Normalize()
		spec.Seed = cellSeed(cfg.seed, spec.Name())
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		pool := mc.NewPool(2)
		recs, err := pool.Run(context.Background(), spec.MCJob(), mc.RunOpts{})
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		for _, rec := range recs {
			if err := mc.AppendRecord(&want, rec); err != nil {
				t.Fatal(err)
			}
		}
		if got != want.String() {
			t.Fatalf("%s cell differs from job %s:\n got %s\nwant %s", tc.graph, spec.Name(), got, want.String())
		}
	}
}

func TestSweepDeterministicAcrossRunsAndWorkers(t *testing.T) {
	cfg := testCfg()
	first := runSweep(t, cfg, nil)
	if runSweep(t, cfg, nil) != first {
		t.Fatal("identical (seed, workers) reruns are not byte-identical")
	}
	cfg.workers = 1
	if runSweep(t, cfg, nil) != first {
		t.Fatal("output depends on -workers")
	}
	cfg.workers = 2
	cfg.format = "jsonl"
	j1 := runSweep(t, cfg, nil)
	cfg.workers = 4
	if runSweep(t, cfg, nil) != j1 {
		t.Fatal("JSONL output depends on -workers")
	}
}

func TestSweepJSONLRecords(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	out := runSweep(t, cfg, nil)
	recs, err := mc.ReadRecords(strings.NewReader(out))
	if err != nil {
		t.Fatalf("JSONL output unparseable: %v", err)
	}
	wantCells := 2 * 2
	if len(recs) != wantCells*cfg.reps {
		t.Fatalf("got %d records, want %d", len(recs), wantCells*cfg.reps)
	}
	byJob := groupByJob(recs)
	if len(byJob) != wantCells {
		t.Fatalf("got %d jobs, want %d", len(byJob), wantCells)
	}
	for job, byRep := range byJob {
		if len(byRep) != cfg.reps {
			t.Errorf("job %s has %d replicates, want %d", job, len(byRep), cfg.reps)
		}
		for rep, rec := range byRep {
			if rec.Rounds <= 0 || rec.Seed == 0 {
				t.Errorf("job %s rep %d has implausible record %+v", job, rep, rec)
			}
		}
	}
	// One line per record, each valid JSON.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
	}
}

// TestSweepResume interrupts a JSONL grid by truncating its output file
// to a record prefix, resumes, and requires the completed file to be
// byte-identical to an uninterrupted run.
func TestSweepResume(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	dir := t.TempDir()

	full := filepath.Join(dir, "full.jsonl")
	cfg.out = full
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("full run: %v", err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	lines := bytes.SplitAfter(want, []byte("\n"))
	cut := len(lines) / 3
	partial := filepath.Join(dir, "partial.jsonl")
	if err := os.WriteFile(partial, bytes.Join(lines[:cut], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.out = partial
	cfg.resume = true
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed grid differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

func TestSweepResumeRejectsForeignGrid(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	dir := t.TempDir()
	cfg.out = filepath.Join(dir, "grid.jsonl")
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	cfg.ks = "2" // narrower grid: the k=4 records on disk are now foreign
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("resume with a changed grid must fail, not mix stale records into the file")
	}

	// A graph grid written by a version that still had -sampler batch:
	// its cells are named with a /sampler=batch suffix, which no cell of
	// this version carries, so the whole file is foreign.
	cfg = testCfg()
	cfg.format = "jsonl"
	cfg.rules, cfg.graphs, cfg.ks, cfg.reps = "2choices", "regular:4", "2", 2
	cfg.out = filepath.Join(dir, "batch.jsonl")
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	old := regexp.MustCompile(`(/gseed=\d+)"`).ReplaceAll(raw, []byte(`$1/sampler=batch"`))
	if bytes.Equal(old, raw) {
		t.Fatal("no graph cell names to rewrite")
	}
	if err := os.WriteFile(cfg.out, old, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	if err := run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "not in this grid") {
		t.Fatalf("resume of a /sampler=batch file: err = %v, want a foreign-grid error", err)
	}

	// A missing file is no foreign grid but the empty prefix of any:
	// -resume runs the whole grid into it.
	cfg.out = filepath.Join(dir, "absent.jsonl")
	if err := run(context.Background(), cfg); err != nil {
		t.Fatalf("resume into a missing file: %v", err)
	}
	if got, err := os.ReadFile(cfg.out); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("resume into a missing file wrote %d bytes (%v), want the %d of an uninterrupted run", len(got), err, len(raw))
	}
}

func TestSweepResumeRejectsReorderedGrid(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	dir := t.TempDir()
	cfg.out = filepath.Join(dir, "grid.jsonl")
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	// Truncate to a prefix ending inside the first rule's cells, then
	// resume with the rules reversed: same cell set, different order, so
	// appending would interleave job blocks.
	raw, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if err := os.WriteFile(cfg.out, bytes.Join(lines[:3], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	cfg.rules = "2choices,3majority"
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("resume with reordered cells must fail, not append a misordered file")
	}

	// A repeated line or two swapped replicates of one cell are no prefix
	// of the grid either, though every record belongs to it: resuming
	// must fail and leave the file as it was.
	cfg.rules = testCfg().rules
	lines = bytes.SplitAfter(raw, []byte("\n"))
	for _, tc := range []struct {
		name  string
		lines [][]byte
	}{
		{"repeated first line", append([][]byte{lines[0]}, lines...)},
		{"swapped replicates", append([][]byte{lines[0], lines[2], lines[1]}, lines[3:]...)},
	} {
		bad := bytes.Join(tc.lines, nil)
		if err := os.WriteFile(cfg.out, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), cfg); err == nil {
			t.Errorf("%s: resume accepted a file that is not a prefix of the grid", tc.name)
		}
		if got, _ := os.ReadFile(cfg.out); !bytes.Equal(got, bad) {
			t.Errorf("%s: rejected resume changed the file from %d to %d bytes", tc.name, len(bad), len(got))
		}
	}
}

func TestSweepResumeRejectsWrongSeed(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	dir := t.TempDir()
	cfg.out = filepath.Join(dir, "grid.jsonl")
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.resume = true
	cfg.seed++
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("resume with a different -seed must fail, not silently mix streams")
	}
}

func TestRunFlagValidation(t *testing.T) {
	cfg := testCfg()
	cfg.format = "xml"
	if err := run(context.Background(), cfg); err == nil {
		t.Error("unknown -format accepted")
	}
	cfg = testCfg()
	cfg.resume = true // csv + no -out
	if err := run(context.Background(), cfg); err == nil {
		t.Error("-resume without -format jsonl -out accepted")
	}
}

func TestParseRule(t *testing.T) {
	// -rules entries resolve through each cell's spec: a good name makes
	// a cell running that rule, and a bad one fails the whole grid.
	for _, ok := range []string{"3majority", "median", "polling", "2choices", "hplurality:3"} {
		cfg := testCfg()
		cfg.rules = ok
		cells, err := grid(cfg)
		if err != nil {
			t.Errorf("-rules %s: %v", ok, err)
			continue
		}
		for _, cl := range cells {
			if cl.spec.Rule != ok {
				t.Errorf("-rules %s: cell rule %q", ok, cl.spec.Rule)
			}
		}
	}
	for _, bad := range []string{"4majority", "hplurality:0", "hplurality:x", ""} {
		cfg := testCfg()
		cfg.rules = bad
		if _, err := grid(cfg); err == nil {
			t.Errorf("-rules %q accepted", bad)
		}
	}
}

func TestCellSeedStable(t *testing.T) {
	a := cellSeed(1, "rule/n=10/k=2/c=1")
	if a != cellSeed(1, "rule/n=10/k=2/c=1") {
		t.Error("cellSeed not deterministic")
	}
	if a == cellSeed(1, "rule/n=10/k=4/c=1") || a == cellSeed(2, "rule/n=10/k=2/c=1") {
		t.Error("cellSeed collides across cells/seeds")
	}
}

// TestSweepTraceDir pins the -trace-dir surface: one JSONL trace file
// per grid cell, one parseable trace run per replicate in replicate
// order, headers tied to the cell, and — because the observer consumes
// no rng — output records identical to an untraced run of the same grid.
func TestSweepTraceDir(t *testing.T) {
	cfg := testCfg()
	cfg.format = "jsonl"
	plain := runSweep(t, cfg, nil)

	cfg.traceDir = t.TempDir()
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	traced := runSweep(t, cfg, nil)
	if traced != plain {
		t.Fatal("tracing changed the sweep's record output")
	}

	recs, err := mc.ReadRecords(strings.NewReader(traced))
	if err != nil {
		t.Fatal(err)
	}
	byJob := groupByJob(recs)
	files, err := filepath.Glob(filepath.Join(cfg.traceDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(byJob) {
		t.Fatalf("got %d trace files, want one per cell (%d)", len(files), len(byJob))
	}
	seenJobs := map[string]bool{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		traces, skipped, err := obs.ReadTraces(f)
		f.Close()
		if err != nil || skipped != 0 {
			t.Fatalf("%s: err=%v skipped=%d", path, err, skipped)
		}
		if len(traces) != cfg.reps {
			t.Fatalf("%s: %d trace runs, want %d", path, len(traces), cfg.reps)
		}
		job := traces[0].Header.Job
		byRep := byJob[job]
		if byRep == nil {
			t.Fatalf("%s: trace job %q not in the sweep output", path, job)
		}
		seenJobs[job] = true
		for i, tr := range traces {
			if tr.Header.Rep != i || tr.Header.Job != job {
				t.Fatalf("%s: trace %d is rep %d of %q, want replicate order", path, i, tr.Header.Rep, tr.Header.Job)
			}
			if tr.Header.N != 1000 || tr.Header.Seed != byRep[i].Seed {
				t.Fatalf("%s rep %d: header %+v not tied to record %+v", path, i, tr.Header, byRep[i])
			}
			// Headed as pluralityd heads the job's traces: the spec's
			// rule name and resolved engine.
			if tr.Header.Engine != "multinomial" || (tr.Header.Rule != "3majority" && tr.Header.Rule != "2choices") {
				t.Fatalf("%s rep %d: header engine/rule = %s/%s", path, i, tr.Header.Engine, tr.Header.Rule)
			}
			if tr.Summary == nil || tr.Summary.Rounds != byRep[i].Rounds {
				t.Fatalf("%s rep %d: summary %+v disagrees with record rounds %d", path, i, tr.Summary, byRep[i].Rounds)
			}
		}
	}
	if len(seenJobs) != len(byJob) {
		t.Fatalf("trace files cover %d cells, want %d", len(seenJobs), len(byJob))
	}
}

// TestTraceFileName pins the sanitization: output is filesystem-safe on
// every platform and distinct cells map to distinct names in practice.
func TestTraceFileName(t *testing.T) {
	got := traceFileName("3majority/g=smallworld:4:0.1/n=1000/k=2/c=0.5")
	want := "3majority_g_smallworld_4_0.1_n_1000_k_2_c_0.5.jsonl"
	if got != want {
		t.Fatalf("traceFileName = %q, want %q", got, want)
	}
	if strings.ContainsAny(got, "/\\:=") {
		t.Fatalf("unsafe bytes survived: %q", got)
	}
}
