// Benchmark harness: one testing.B benchmark per reproduced table/figure
// (E1–E20, quick profile — run cmd/experiments -profile full for the
// heavyweight numbers; the committed EXPERIMENTS.md is the quick profile)
// plus engine micro-benchmarks for the ablations called out in
// DESIGN.md §5.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkE5 -benchtime=1x
package plurality_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/expt"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/service"
	"plurality/internal/topo"
)

// benchProfile keeps per-iteration time moderate; experiments are whole
// sweeps, so -benchtime=1x is the intended usage.
var benchProfile = expt.Profile{Name: "bench", N: 10_000, Reps: 4}

func benchExperiment(b *testing.B, id string) {
	e, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := e.Run(benchProfile, uint64(2014+i))
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no data", id)
		}
	}
}

func BenchmarkE1UpperBound(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2Polylog(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3LowerBound(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4RuleZoo(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5HPlurality(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6BiasTightness(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7MedianGap(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Adversary(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9Phases(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Polling(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11Undecided(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Drift(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13KeepOwn(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Topologies(b *testing.B)   { benchExperiment(b, "E14") }
func BenchmarkE15Ablations(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16Asynchronous(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17ExactChain(b *testing.B)   { benchExperiment(b, "E17") }
func BenchmarkE18MeanField(b *testing.B)    { benchExperiment(b, "E18") }
func BenchmarkE19Faults(b *testing.B)       { benchExperiment(b, "E19") }
func BenchmarkE20SpectralGap(b *testing.B)  { benchExperiment(b, "E20") }

// ----- engine micro-benchmarks (ablations of DESIGN.md §5) -----

// BenchmarkEngineMultinomialRound measures the exact O(k) engine: one
// transient round at n = 10^6 for growing k. The configuration is restored
// before every Step — without the reset the chain absorbs within ~30
// rounds and the remaining iterations would measure the degenerate
// monochromatic round (one p=1 binomial) instead of k live binomial draws.
func BenchmarkEngineMultinomialRound(b *testing.B) {
	for _, k := range []int{2, 16, 128, 1024} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r := rng.New(1)
			init := colorcfg.Biased(1_000_000, k, 10_000)
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SetConfig(init)
				e.Step(r)
			}
		})
	}
}

// BenchmarkEngineMultinomialRoundN fixes k and scales n across three
// orders of magnitude: the conditional-binomial multinomial sampler makes a
// round O(k) with n entering only through O(1) rejection sampling, so
// per-round time must be flat in n (the acceptance gate of DESIGN.md §5
// asks for 10^6 vs 10^9 within 2x).
func BenchmarkEngineMultinomialRoundN(b *testing.B) {
	for _, n := range []int64{1_000_000, 100_000_000, 1_000_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(1)
			init := colorcfg.Biased(n, 16, n/100)
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SetConfig(init) // keep every measured round transient
				e.Step(r)
			}
		})
	}
}

// roundsPerEngine is how many rounds the transient-round benchmarks step
// one engine before rebuilding it outside the timer: from their starts the
// clique reaches consensus in 29–48 rounds, and the undecided chain in
// ~80, so 16 rounds keep every timed round transient at any -benchtime.
const roundsPerEngine = 16

// stepFresh steps b.N rounds on r, rebuilding the engine with build,
// outside the timer, every roundsPerEngine rounds. It runs a b.N loop,
// not b.Loop: go1.24's b.Loop times its stop check from the last
// StartTimer, so with the timer paused every 16 rounds it never stops.
func stepFresh(b *testing.B, r *rng.Rand, build func() engine.Engine) {
	var e engine.Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%roundsPerEngine == 0 {
			b.StopTimer()
			if e != nil {
				e.Close()
			}
			e = build()
			b.StartTimer()
		}
		e.Step(r)
	}
	b.StopTimer()
	if e != nil {
		e.Close()
	}
}

// BenchmarkEngineSampledRound measures one transient round of the
// agent-sampling engine at n = 100k across worker counts (parallel
// scaling ablation).
func BenchmarkEngineSampledRound(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			init := colorcfg.Biased(100_000, 16, 1_000)
			stepFresh(b, nil, func() engine.Engine {
				return engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, workers, 7)
			})
		})
	}
}

// opaqueSource hides a source's concrete type behind the bare interface,
// so the graph engine takes its generic row over the same structure.
type opaqueSource struct{ topo.NeighborSource }

// BenchmarkEngineGraphRound measures one transient round of the
// per-vertex engine at n = 10⁵ on the clique (alias fast path), on a
// random 8-regular CSR (direct-slice fast path) — the clique-vs-regular
// gap of DESIGN.md §5 — and on a G(n, 8/n) CSR behind opaqueSource (the
// generic row's per-sample draws over skewed degrees).
func BenchmarkEngineGraphRound(b *testing.B) {
	const n = 100_000
	builders := []struct {
		name string
		g    topo.NeighborSource
	}{
		{"clique", topo.NewComplete(n)},
		{"8-regular-csr", topo.RandomRegular("regular:8", n, 8, rng.New(2))},
		{"gnp-generic", opaqueSource{topo.Gnp("gnp:8e-05", n, 8.0/n, rng.New(2))}},
	}
	for _, tc := range builders {
		b.Run(tc.name, func(b *testing.B) {
			init := colorcfg.Biased(n, 8, 1_000)
			layout := rng.New(3)
			stepFresh(b, nil, func() engine.Engine {
				return engine.NewGraphEngine(dynamics.ThreeMajority{}, tc.g, init, 4, 11, layout)
			})
		})
	}
}

// BenchmarkEngineGraphRoundSparse scales the CSR-sharded graph engine to
// large sparse topologies: one synchronous 3-majority round on a random
// 8-regular graph at n = 10⁶ and the headline n = 10⁷ (int64 offsets
// 80 MB + int32 neighbors 320 MB, double-buffered colors 80 MB —
// comfortably inside 2 GB; the legacy engine path topped out around 10⁵).
func BenchmarkEngineGraphRoundSparse(b *testing.B) {
	for _, n := range []int64{1_000_000, 10_000_000} {
		g := topo.RandomRegular("regular:8", n, 8, rng.New(4))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := engine.NewGraphEngine(dynamics.ThreeMajority{}, g,
				colorcfg.Biased(n, 8, n/100), 4, 17, rng.New(5))
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step(nil)
			}
			// ns/agent is the unit the CI perf budget is written in (the
			// ROADMAP target is <= 50 ns/agent at n = 10⁷ on 4 workers).
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/agent")
		})
	}
}

// BenchmarkEngineGraphRoundSparseObserved re-runs the headline n = 10⁷
// sparse round with an obs.Recorder attached: the price of telemetry on
// the hottest path. The observer fires once per Step, outside the
// per-agent loops, so this must track BenchmarkEngineGraphRoundSparse's
// n=10000000 row within the CI overhead budget (≤ 2%, warn-only).
func BenchmarkEngineGraphRoundSparseObserved(b *testing.B) {
	const n = 10_000_000
	g := topo.RandomRegular("regular:8", n, 8, rng.New(4))
	e := engine.NewGraphEngine(dynamics.ThreeMajority{}, g,
		colorcfg.Biased(n, 8, n/100), 4, 17, rng.New(5))
	defer e.Close()
	if !engine.Observe(e, &obs.Recorder{}) {
		b.Fatal("graph engine is not observable")
	}
	// One untimed round absorbs the first-Step warm-up (page faults on
	// the fresh CSR, the recorder's one-time ring allocation) so the
	// samples measure the steady state the ≤2% overhead budget is
	// written against.
	e.Step(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/agent")
}

// BenchmarkEngineGraphRoundImplicit measures the zero-materialization
// backend: one synchronous 3-majority round on an implicit 3-torus at
// n = 10⁶ (100³). Nothing but the color arrays exists in memory — this is
// the per-round cost model for the n = 10⁹ regime, where adjacency would
// be 48 GB as a CSR but is 0 B here.
func BenchmarkEngineGraphRoundImplicit(b *testing.B) {
	const n = 1_000_000 // 100³
	src, err := topo.BuildSource("torus:3", n, nil, topo.BuildOpts{})
	if err != nil {
		b.Fatal(err)
	}
	e := engine.NewGraphEngine(dynamics.ThreeMajority{}, src,
		colorcfg.Biased(n, 8, n/100), 4, 19, rng.New(6))
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(nil)
	}
}

// BenchmarkEngineGraphRoundMmap measures the disk-backed backend: the same
// 8-regular n = 10⁶ workload as the Sparse bench, but served from a
// memory-mapped CSR file instead of heap slices — the generic sampling
// path plus page-cache reads, the cost model for graphs bigger than RAM.
func BenchmarkEngineGraphRoundMmap(b *testing.B) {
	const n = 1_000_000
	path := filepath.Join(b.TempDir(), "regular8.csr")
	src, err := topo.BuildSource("regular:8", n, rng.New(4), topo.BuildOpts{Path: path})
	if err != nil {
		b.Fatal(err)
	}
	defer src.(io.Closer).Close()
	e := engine.NewGraphEngine(dynamics.ThreeMajority{}, src,
		colorcfg.Biased(n, 8, n/100), 4, 17, rng.New(5))
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(nil)
	}
}

// BenchmarkBuildRegular measures one regular:8 build at n = 2¹⁸, the
// graph graph-grid builds in its set-up and the shape of every graph
// engine job's first step: the stub fill and shuffle, the pairing, the
// repair sweep and the row sort, all on the calling goroutine. Every
// iteration builds the same graph from a fresh generator.
func BenchmarkBuildRegular(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := topo.BuildSource("regular:8", 1<<18, rng.New(1), topo.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalReplay measures a pluralityd restart: service.New on a
// data dir holding 500 finished 16-replicate jobs, the journal plbench's
// daemon-submit boots on, then Close. Replay reads the meta journal and
// proves each job's records file with mc.Prefix. The data dir is built
// once, outside the timer, without fsyncs; every timed restart reads the
// same files and cuts nothing.
func BenchmarkJournalReplay(b *testing.B) {
	const jobs = 500
	dir := b.TempDir()
	srv, err := service.New(service.Options{Workers: 2, DataDir: dir, FS: noSyncFS{service.OSFS()}})
	if err != nil {
		b.Fatal(err)
	}
	for i := range jobs {
		body, err := json.Marshal(service.JobSpec{Rule: "3majority", Engine: "multinomial", N: 1_000_000, K: 16, Replicates: 16, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("job %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	srv.Close()
	b.ReportAllocs()
	for b.Loop() {
		srv, err := service.New(service.Options{Workers: 2, DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		srv.Close()
	}
}

// noSyncFS is a service.FS whose files skip fsync, for building scratch
// data dirs quickly.
type noSyncFS struct{ service.FS }

type noSyncFile struct{ service.File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) OpenAppend(path string) (service.File, error) {
	f, err := fs.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// BenchmarkEngineUndecidedRound measures one transient round of the exact
// undecided-state engine at n = 10⁶, k = 64. From this start the chain
// reaches consensus in ~80 rounds, after which a round is one live draw;
// so the engine is rebuilt every 16 rounds, while all 64 colors are still
// alive.
func BenchmarkEngineUndecidedRound(b *testing.B) {
	init := colorcfg.Biased(1_000_000, 64, 10_000)
	stepFresh(b, rng.New(1), func() engine.Engine { return engine.NewUndecidedExact(init) })
}

// BenchmarkTieBreakVariants compares the two tie-break implementations
// (the paper notes they realize the same process; the bench shows the
// uniform variant's extra randomness cost).
func BenchmarkTieBreakVariants(b *testing.B) {
	for name, rule := range map[string]dynamics.Rule{
		"first":   dynamics.ThreeMajority{},
		"uniform": dynamics.ThreeMajority{UniformTie: true},
	} {
		b.Run(name, func(b *testing.B) {
			r := rng.New(1)
			s := []colorcfg.Color{3, 1, 2}
			var sink colorcfg.Color
			for i := 0; i < b.N; i++ {
				sink += rule.Apply(s, r)
			}
			_ = sink
		})
	}
}

// BenchmarkFullRunConvergence measures an end-to-end Run to consensus at
// n = 10^6 (the headline workload of examples/quickstart): building the
// engine and running it, a fresh seed per iteration. Its allocs/op do not
// grow with the run's rounds (core.TestRunAllocsIndependentOfRounds).
func BenchmarkFullRunConvergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		n := int64(1_000_000)
		init := colorcfg.Biased(n, 16, core.Corollary1Bias(n, 16, 1.0))
		e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
		res := core.Run(e, core.Options{MaxRounds: 10_000, Rand: rng.New(uint64(i))})
		if !res.WonInitialPlurality {
			b.Fatal("benchmark run failed to converge")
		}
	}
}
