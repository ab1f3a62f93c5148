package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/mc"
	"plurality/internal/obs"
	"plurality/internal/service"
	"plurality/internal/topo"
)

// testCfg is a small run with the flags' defaults for everything but the
// population.
func testCfg() config {
	return config{
		spec: service.JobSpec{Rule: "3majority", Engine: "auto", Graph: "complete",
			N: 2000, K: 3, Bias: "auto", Seed: 1, MaxRounds: 10000},
		workers:    2,
		adversary:  "none",
		mPlurality: -1,
	}
}

// graphCfg is a graph-engine run on n vertices with bias 20, its graph
// served from file when that is set.
func graphCfg(graph, file string, n int64) config {
	cfg := testCfg()
	cfg.spec.Engine = "graph"
	cfg.spec.Graph = graph
	cfg.spec.N = n
	cfg.spec.Bias = "20"
	cfg.graphFile = file
	cfg.workers = 1
	return cfg
}

func TestParseRule(t *testing.T) {
	// -rule resolves through the spec: each good name builds an engine
	// running the rule with the expected display name, and each bad one
	// is an error.
	good := map[string]string{
		"3majority":      "3-majority",
		"3majority-utie": "3-majority(uniform-tie)",
		"median":         "median",
		"polling":        "polling",
		"2choices":       "2-choices",
		"hplurality:7":   "7-plurality",
	}
	for in, want := range good {
		cfg := testCfg()
		cfg.spec.Rule = in
		_, e, _, err := build(cfg)
		if err != nil {
			t.Errorf("-rule %s: %v", in, err)
			continue
		}
		if name := e.Name(); !strings.Contains(name, "["+want) {
			t.Errorf("-rule %s: engine %q, want rule %q", in, name, want)
		}
		e.Close()
	}
	for _, bad := range []string{"", "nope", "hplurality:", "hplurality:0", "hplurality:x"} {
		cfg := testCfg()
		cfg.spec.Rule = bad
		if _, _, _, err := build(cfg); err == nil {
			t.Errorf("-rule %q should fail", bad)
		}
	}
}

func TestParseBias(t *testing.T) {
	// -bias sets the initial configuration through the spec: an integer
	// is the additive bias toward color 0, "auto" the Corollary 1
	// threshold, anything else an error.
	cfg := testCfg()
	cfg.spec.N, cfg.spec.K, cfg.spec.Bias = 1000, 4, "123"
	_, e, _, err := build(cfg)
	if err != nil {
		t.Fatalf("explicit bias: %v", err)
	}
	if got, want := e.Config(), colorcfg.Biased(1000, 4, 123); !got.Equal(want) {
		t.Errorf("explicit bias: initial configuration %v, want %v", got, want)
	}
	cfg.spec.N, cfg.spec.Bias = 100000, "auto"
	if _, e, _, err := build(cfg); err != nil || e.Config().Bias() <= 0 {
		t.Errorf("auto bias: %v", err)
	}
	cfg.spec.N, cfg.spec.K, cfg.spec.Bias = 100, 2, "abc"
	if _, _, _, err := build(cfg); err == nil || !strings.Contains(err.Error(), "bad bias") {
		t.Errorf("bad bias error = %v", err)
	}
}

func TestBuildEngineGraphSpecs(t *testing.T) {
	// -graph resolves through the topo registry: every family is
	// reachable from this CLI by name, and bad specs error out.
	for _, spec := range []string{
		"complete", "cycle", "star", "torus", "hypercube",
		"regular:4", "gnp:0.3", "smallworld:4:0.1", "ba:3",
		"sbm:2:0.2:0.02", "barbell:4",
	} {
		n := int64(100)
		if spec == "hypercube" {
			n = 128
		}
		_, e, _, err := build(graphCfg(spec, "", n))
		if err != nil {
			t.Errorf("build(graph, %q): %v", spec, err)
			continue
		}
		if e.N() != n {
			t.Errorf("%q: engine n = %d, want %d", spec, e.N(), n)
		}
		e.Close()
	}
	for _, bad := range []string{"nope", "regular:x", "gnp:y", "torus:0"} {
		if _, _, _, err := build(graphCfg(bad, "", 100)); err == nil {
			t.Errorf("build(graph, %q) should fail", bad)
		}
	}
	if _, _, _, err := build(graphCfg("torus", "", 101)); err == nil {
		t.Error("non-square torus accepted")
	}
}

// TestGraphFile pins -graph-file: it maps the graph exactly when set,
// building the file on first use and reusing it after, and the mapped
// graph runs exactly as the in-RAM one does. Without -engine graph the
// flag is an error.
func TestGraphFile(t *testing.T) {
	var want bytes.Buffer
	if _, err := run(&want, graphCfg("regular:4", "", 100)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	for i := 0; i < 2; i++ { // the second pass reuses the file
		var got bytes.Buffer
		if _, err := run(&got, graphCfg("regular:4", path, 100)); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		if got.String() != want.String() {
			t.Fatalf("pass %d: mapped run printed\n%s\nin-RAM run printed\n%s", i, got.String(), want.String())
		}
	}
	m, err := topo.OpenCSR(path)
	if err != nil {
		t.Fatalf("-graph-file left no CSR file: %v", err)
	}
	if m.Name() != "regular:4" || m.N() != 100 {
		t.Errorf("-graph-file holds %q with n=%d, want regular:4 with n=100", m.Name(), m.N())
	}
	m.Close()

	cfg := testCfg()
	cfg.graphFile = filepath.Join(t.TempDir(), "unused.csr")
	if _, _, _, err := build(cfg); err == nil || !strings.Contains(err.Error(), "-graph-file needs -engine graph") {
		t.Errorf("-graph-file without -engine graph: error = %v", err)
	}
}

// TestRunRejectsBadSpecs pins fail-closed input handling: each case used
// to panic or run, and now fails with the JobSpec check's error before
// printing anything.
func TestRunRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*service.JobSpec)
		want   string
	}{
		{"bias above n", func(s *service.JobSpec) { s.N, s.K, s.Bias = 100, 2, "1000" }, "bias 1000 outside [0, n=100]"},
		{"negative bias", func(s *service.JobSpec) { s.N, s.K, s.Bias = 100, 2, "-5" }, "bias -5 outside [0, n=100]"},
		{"n zero", func(s *service.JobSpec) { s.N, s.K = 0, 2 }, "n must be >= 1, got 0"},
		{"k zero", func(s *service.JobSpec) { s.K = 0 }, "k must be >= 2, got 0"},
		{"k one", func(s *service.JobSpec) { s.K = 1 }, "k must be >= 2, got 1"},
		{"k above n", func(s *service.JobSpec) { s.N, s.K = 10, 20 }, "k = 20 exceeds n = 10"},
		{"undecided on sampled", func(s *service.JobSpec) { s.Rule, s.Engine = "undecided", "sampled" }, "carries its own engine"},
		{"keep-own on graph", func(s *service.JobSpec) { s.Rule, s.Engine = "2choices-keepown", "graph" }, "carries its own engine"},
	}
	for _, tc := range cases {
		cfg := testCfg()
		tc.mutate(&cfg.spec)
		var out bytes.Buffer
		_, err := run(&out, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed %q before failing", tc.name, out.String())
		}
	}
}

// TestBuildSkipsServiceCaps pins that the CLI runs what only the
// daemon's admission caps refuse: here more colors than service.MaxK and
// an h above service.MaxH.
func TestBuildSkipsServiceCaps(t *testing.T) {
	for _, mutate := range []func(*service.JobSpec){
		func(s *service.JobSpec) { s.N, s.K = 10_000, service.MaxK+1 },
		func(s *service.JobSpec) { s.Rule = fmt.Sprintf("hplurality:%d", service.MaxH+1) },
	} {
		cfg := testCfg()
		mutate(&cfg.spec)
		_, e, _, err := build(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg.spec, err)
		}
		e.Close()
	}
}

// TestRunIsReplicateZero pins the cross-surface contract: at any -workers
// (3 here, while job replicates step on one worker) a run reports the
// rounds and outcome that replicate 0 of the pluralityd job with the same
// spec records.
func TestRunIsReplicateZero(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*service.JobSpec)
	}{
		{"multinomial", func(s *service.JobSpec) { s.Engine = "multinomial" }},
		{"sampled", func(s *service.JobSpec) { s.Engine = "sampled" }},
		{"graph-torus", func(s *service.JobSpec) { s.Engine, s.Graph, s.N = "graph", "torus", 900 }},
		{"graph-regular4", func(s *service.JobSpec) { s.Engine, s.Graph = "graph", "regular:4" }},
		{"2choices-keepown", func(s *service.JobSpec) { s.Rule = "2choices-keepown" }},
	}
	pool := mc.NewPool(1)
	defer pool.Close()
	for _, tc := range cases {
		cfg := testCfg()
		cfg.workers = 3
		tc.mutate(&cfg.spec)
		res, err := run(io.Discard, cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		// The job takes the spec the way pluralityd does: normalized
		// (graph seed = seed, one replicate) and validated.
		spec := cfg.spec
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		recs, err := pool.Run(context.Background(), spec.MCJob(), mc.RunOpts{})
		if err != nil {
			t.Fatalf("%s: job: %v", tc.name, err)
		}
		if res.Rounds < 1 || recs[0].Rounds != res.Rounds || recs[0].Success != res.WonInitialPlurality {
			t.Errorf("%s: run reports %d rounds, won=%v; replicate 0 of %s records %+v",
				tc.name, res.Rounds, res.WonInitialPlurality, spec.Name(), recs[0])
		}
	}
}

func TestParseAdversary(t *testing.T) {
	for in, wantBudget := range map[string]int64{
		"strongest:5": 5, "spread:7": 7, "random:9": 9, "boost:3": 3,
	} {
		a, err := parseAdversary(in)
		if err != nil {
			t.Errorf("parseAdversary(%q): %v", in, err)
			continue
		}
		if a.Budget() != wantBudget {
			t.Errorf("parseAdversary(%q).Budget() = %d", in, a.Budget())
		}
	}
	if a, err := parseAdversary("none"); err != nil || a.Budget() != 0 {
		t.Error("none adversary broken")
	}
	for _, bad := range []string{"strongest", "strongest:-1", "strongest:x", "nope:5"} {
		if _, err := parseAdversary(bad); err == nil {
			t.Errorf("parseAdversary(%q) should fail", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Small end-to-end runs through the CLI plumbing (no flags).
	if _, err := run(io.Discard, testCfg()); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Multi-worker agent-level engines: the clique sampler and the
	// graph engine step with two workers.
	sampled := testCfg()
	sampled.spec.Engine = "sampled"
	if _, err := run(io.Discard, sampled); err != nil {
		t.Fatalf("run sampled: %v", err)
	}
	graph := graphCfg("torus", "", 900)
	graph.workers = 2
	if _, err := run(io.Discard, graph); err != nil {
		t.Fatalf("run graph: %v", err)
	}
	// Undecided path.
	undecided := testCfg()
	undecided.spec.Rule, undecided.spec.Bias = "undecided", "500"
	if _, err := run(io.Discard, undecided); err != nil {
		t.Fatalf("run undecided: %v", err)
	}
	// Keep-own path with adversary and M-plurality stop.
	keepOwn := testCfg()
	keepOwn.spec.Rule = "2choices-keepown"
	keepOwn.adversary, keepOwn.mPlurality, keepOwn.phases = "strongest:2", 50, true
	if _, err := run(io.Discard, keepOwn); err != nil {
		t.Fatalf("run keep-own: %v", err)
	}
	// Error paths.
	bad := testCfg()
	bad.spec.Rule = "nope"
	if _, err := run(io.Discard, bad); err == nil {
		t.Error("bad rule accepted")
	}
	bad = testCfg()
	bad.spec.Engine = "nope"
	if _, err := run(io.Discard, bad); err == nil {
		t.Error("bad engine accepted")
	}
}

// TestRunTraceFile pins the -trace flag and the outputs that read the
// same observer: the run writes a parseable JSONL trace whose round count
// matches the run and whose bytes the tolerant reader consumes without
// skips, -print-rounds prints one line per round, in order, and -phases
// prints the phase table cmd/tracereport prints for the trace file.
func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := testCfg()
	cfg.traceFile, cfg.printRounds, cfg.phases = path, true, true
	var out bytes.Buffer
	res, err := run(&out, cfg)
	if err != nil {
		t.Fatalf("run with -trace: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	traces, skipped, err := obs.ReadTraces(f)
	if err != nil || skipped != 0 {
		t.Fatalf("parsing trace: err=%v skipped=%d", err, skipped)
	}
	if len(traces) != 1 {
		t.Fatalf("got %d trace runs, want 1", len(traces))
	}
	// The header is replicate 0's, as a sweep -trace-dir file or a traced
	// pluralityd job heads it: the job name, rep 0, the replicate's seed
	// (not -seed) and the spec's engine label.
	tr := traces[0]
	job := "3majority/multinomial/n=2000/k=3/bias=auto/rounds=10000/seed=1"
	if h := tr.Header; h.Rule != "3majority" || h.N != 2000 || h.K != 3 ||
		h.Job != job || h.Rep != 0 || h.Seed != mc.RepSeeds(1, 1)[0] || h.Engine != "multinomial" {
		t.Fatalf("trace header %+v does not describe replicate 0 of %s", tr.Header, job)
	}
	if tr.Summary == nil || tr.Summary.Rounds != res.Rounds || len(tr.Rounds) != tr.Summary.Retained {
		t.Fatalf("trace summary inconsistent: %+v with %d round lines for %d rounds", tr.Summary, len(tr.Rounds), res.Rounds)
	}
	last := tr.Rounds[len(tr.Rounds)-1]
	if last.CMax <= 0 || last.CMax > 2000 {
		t.Fatalf("implausible final c_max %d", last.CMax)
	}

	var rounds []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "round ") {
			rounds = append(rounds, line)
		}
	}
	if len(rounds) != res.Rounds {
		t.Fatalf("printed %d round lines for %d rounds", len(rounds), res.Rounds)
	}
	for i, line := range rounds {
		if want := fmt.Sprintf("round %5d  ", i+1); !strings.HasPrefix(line, want) {
			t.Fatalf("round line %d is %q, want prefix %q", i, line, want)
		}
	}
	table := obs.PhaseSummary(tr.Rounds, tr.Summary.Dropped)
	if table == "" || !strings.Contains(out.String(), "\n\n"+table) {
		t.Fatalf("-phases output differs from the trace file's phase table %q:\n%s", table, out.String())
	}
}
