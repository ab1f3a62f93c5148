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
)

// testCfg is a small run with the flags' defaults for everything but the
// population.
func testCfg() config {
	return config{
		spec: service.JobSpec{Rule: "3majority", Engine: "auto", Graph: "complete",
			N: 2000, K: 3, Bias: "auto", Seed: 1, MaxRounds: 10000, Sampler: "default"},
		graphMode:  "auto",
		workers:    2,
		adversary:  "none",
		mPlurality: -1,
	}
}

// graphCfg is a graph-engine run on n vertices with bias 20.
func graphCfg(graph, mode, file, sampler string, n int64) config {
	cfg := testCfg()
	cfg.spec.Engine = "graph"
	cfg.spec.Graph = graph
	cfg.spec.N = n
	cfg.spec.Bias = "20"
	cfg.spec.Sampler = sampler
	cfg.graphMode = mode
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
		_, e, _, err := build(graphCfg(spec, "auto", "", "default", n))
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
		if _, _, _, err := build(graphCfg(bad, "auto", "", "default", 100)); err == nil {
			t.Errorf("build(graph, %q) should fail", bad)
		}
	}
	if _, _, _, err := build(graphCfg("torus", "auto", "", "default", 101)); err == nil {
		t.Error("non-square torus accepted")
	}

	// Backend modes: implicit needs no file, mmap builds one and reuses it,
	// and mmap without a path is rejected up front.
	for _, mode := range []string{"implicit", "csr"} {
		_, e, _, err := build(graphCfg("torus", mode, "", "default", 100))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		e.Close()
	}
	path := filepath.Join(t.TempDir(), "t.csr")
	for i := 0; i < 2; i++ { // second pass exercises cache reuse
		_, e, _, err := build(graphCfg("torus", "mmap", path, "default", 100))
		if err != nil {
			t.Fatalf("mmap pass %d: %v", i, err)
		}
		e.Close()
	}
	if _, _, _, err := build(graphCfg("torus", "mmap", "", "default", 100)); err == nil {
		t.Error("mmap without -graph-file accepted")
	}
	if _, _, _, err := build(graphCfg("torus", "nope", "", "default", 100)); err == nil {
		t.Error("unknown graph mode accepted")
	}

	// The batch sampler is a graph-engine notion: accepted there (and
	// stamped into the engine name), rejected for the clique engines and
	// for unknown sampler strings.
	_, e, _, err := build(graphCfg("torus", "auto", "", "batch", 100))
	if err != nil {
		t.Fatalf("batch sampler on graph engine: %v", err)
	}
	if name := e.Name(); !strings.Contains(name, "batch") {
		t.Errorf("batch engine name %q does not advertise the sampler", name)
	}
	e.Close()
	sampled := graphCfg("complete", "auto", "", "batch", 100)
	sampled.spec.Engine = "sampled"
	if _, _, _, err := build(sampled); err == nil {
		t.Error("batch sampler accepted on a non-graph engine")
	}
	if _, _, _, err := build(graphCfg("torus", "auto", "", "turbo", 100)); err == nil {
		t.Error("unknown sampler accepted")
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

// TestRunIsReplicateZero pins the cross-surface contract: at -workers 1 a
// run reports the rounds and outcome that replicate 0 of the pluralityd
// job with the same spec records.
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
		cfg.workers = 1
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
	graph := graphCfg("torus", "auto", "", "default", 900)
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

// TestRunTraceFile pins the -trace flag: the run writes a parseable
// JSONL trace whose round count matches the run and whose bytes the
// tolerant reader consumes without skips.
func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := testCfg()
	cfg.traceFile = path
	if _, err := run(io.Discard, cfg); err != nil {
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
	tr := traces[0]
	if tr.Header.Rule != "3majority" || tr.Header.N != 2000 || tr.Header.K != 3 || tr.Header.Seed != 1 {
		t.Fatalf("trace header %+v does not describe the run", tr.Header)
	}
	if tr.Summary == nil || tr.Summary.Rounds < 1 || len(tr.Rounds) != tr.Summary.Retained {
		t.Fatalf("trace summary inconsistent: %+v with %d round lines", tr.Summary, len(tr.Rounds))
	}
	last := tr.Rounds[len(tr.Rounds)-1]
	if last.CMax <= 0 || last.CMax > 2000 {
		t.Fatalf("implausible final c_max %d", last.CMax)
	}
}
