package expt

import (
	"fmt"
	"math"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
	"plurality/internal/stats"
	"plurality/internal/topo"
)

func init() {
	register("E13", "Extension — 2-choices-keep-own vs 3-majority", runE13)
	register("E14", "Extension — 3-majority beyond the clique", runE14)
	register("E15", "Ablations — tie-breaking and self-sampling", runE15)
	register("E16", "Extension — asynchronous (population) 3-majority", runE16)
}

// runE13 compares the 2-choices-keep-own dynamics of the follow-on
// literature with 3-majority on two workloads. Linearizing both drifts
// around the balanced configuration gives the same first-order growth
// a·(1+Θ(1))/k for a color at n/k + a, so with the Corollary-1 bias and
// for moderate k the two processes track each other closely. The
// difference is laziness, not drift: a keep-own agent switches only when
// its pair agrees (probability Σ(c_h/n)² ≈ 1/k from balanced), so its
// per-round movement — and the noise that breaks exact symmetry — shrinks
// with k, and the doubling-time ratio drifts up slowly with k rather than
// staying at 1.
func runE13(p Profile, seed uint64) []*Table {
	n := p.N
	ks := []int{2, 4, 8, 16, 32}
	if quickish(p) {
		ks = []int{2, 8}
	}
	t := &Table{
		ID:    "E13",
		Title: "2-choices-keep-own vs 3-majority: biased consensus and balanced doubling",
		Note: fmt.Sprintf("n=%d, %d reps; biased columns use the Cor-1 bias; doubling columns start balanced and wait for c_max ≥ 2n/k — prediction: near-identical at small k (same first-order drift), ratio creeping up with k (keep-own's lazier, lower-noise updates)",
			n, p.Reps),
		Columns: []string{"k", "keepown_biased", "3maj_biased", "keepown_double", "3maj_double", "double_ratio"},
	}
	doubleTime := func(e engine.Engine, r *rng.Rand, k int) float64 {
		target := 2 * n / int64(k)
		rounds := 0
		for rounds < 200_000 {
			if first, _ := e.Config().TopTwo(); first >= target {
				break
			}
			e.Step(r)
			rounds++
		}
		return float64(rounds)
	}
	for _, k := range ks {
		k := k
		s := core.Corollary1Bias(n, k, 1.0)
		biased := func(markov bool, offset uint64) float64 {
			results := ParallelReps(p, p.Reps, seed+uint64(k)*7+offset, func(_ int, r *rng.Rand) float64 {
				var e engine.Engine
				if markov {
					e = engine.NewCliqueMarkov(dynamics.TwoChoicesKeepOwn{}, colorcfg.Biased(n, k, s))
				} else {
					e = engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
				}
				res := core.Run(e, core.Options{MaxRounds: 200_000, Rand: r})
				return float64(res.Rounds)
			})
			return stats.Mean(results)
		}
		double := func(markov bool, offset uint64) float64 {
			results := ParallelReps(p, p.Reps, seed+uint64(k)*19+offset, func(_ int, r *rng.Rand) float64 {
				var e engine.Engine
				if markov {
					e = engine.NewCliqueMarkov(dynamics.TwoChoicesKeepOwn{}, colorcfg.Balanced(n, k))
				} else {
					e = engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Balanced(n, k))
				}
				return doubleTime(e, r, k)
			})
			return stats.Mean(results)
		}
		kb, jb := biased(true, 0), biased(false, 1)
		kd, jd := double(true, 2), double(false, 3)
		t.AddRow(fmt.Sprintf("%d", k), fmtF(kb), fmtF(jb), fmtF(kd), fmtF(jd),
			fmtF(kd/math.Max(jd, 1)))
	}
	return []*Table{t}
}

// runE14 formalizes the beyond-clique extension: the same 3-majority rule
// with local neighbor sampling across topologies of decreasing expansion.
// Expanders track the clique; the torus pays a polynomial mixing penalty;
// the cycle coarsens into segments and stalls.
func runE14(p Profile, seed uint64) []*Table {
	n := p.N / 8
	side := int64(math.Sqrt(float64(n)))
	n = side * side // square for the torus
	k := 4
	bias := n / 8
	limit := 10_000
	if quickish(p) {
		limit = 2_000
	}
	t := &Table{
		ID:    "E14",
		Title: "3-majority with local sampling across topologies",
		Note: fmt.Sprintf("n=%d, k=%d, bias=%d, %d reps, cap %d rounds; expansion governs convergence: expanders ≈ clique, torus polynomially slower, cycle stalls",
			n, k, bias, p.Reps, limit),
		Columns: []string{"topology", "converged", "rounds_mean", "final_cmax_share"},
	}
	// Topology specs resolve through the topo registry (the same names
	// sweep/service/validate accept); each family runs on one quenched
	// graph shared across replicates.
	specs := []string{"complete", "regular:8", fmt.Sprintf("gnp:%g", 16.0/float64(n)), "torus", "cycle"}
	for _, spec := range specs {
		g, err := topo.BuildSource(spec, n, rng.New(seed^hashName(spec)), topo.BuildOpts{})
		if err != nil {
			panic(fmt.Sprintf("expt: E14 build %q at n=%d: %v", spec, n, err))
		}
		t.AddRow(append([]string{spec}, topologyRow(p, seed, spec, g, k, bias, limit)...)...)
	}
	return []*Table{t}
}

// runE15 runs the DESIGN.md §5 ablations as a table: (a) the two rainbow
// tie-breaks of the 3-majority rule (the paper asserts their equivalence);
// (b) sampling with vs without self on the clique (an O(1/n) perturbation).
// Both pairs must produce statistically indistinguishable convergence
// times and identical success rates.
func runE15(p Profile, seed uint64) []*Table {
	n := p.N
	k := 8
	s := core.Corollary1Bias(n, k, 1.0)
	reps := p.Reps * 4
	t := &Table{
		ID:    "E15",
		Title: "ablations: tie-break variant and self-sampling",
		Note: fmt.Sprintf("n=%d, k=%d, Cor-1 bias, %d reps; the paper asserts first-sample and uniform tie-breaks are the same process; self-exclusion perturbs sampling by O(1/n)",
			n, k, reps),
		Columns: []string{"variant", "rounds_mean", "rounds_std", "success"},
	}
	type variant struct {
		name string
		mk   func(rep int) engine.Engine
	}
	variants := []variant{
		{"ties→first (paper)", func(rep int) engine.Engine {
			return engine.NewCliqueSampled(dynamics.ThreeMajority{},
				colorcfg.Biased(n, k, s), 1, seed^uint64(rep)*3)
		}},
		{"ties→uniform", func(rep int) engine.Engine {
			return engine.NewCliqueSampled(dynamics.ThreeMajority{UniformTie: true},
				colorcfg.Biased(n, k, s), 1, seed^uint64(rep)*5)
		}},
		{"with self (paper)", func(rep int) engine.Engine {
			return engine.NewGraphEngine(dynamics.ThreeMajority{}, topo.NewComplete(n),
				colorcfg.Biased(n, k, s), 2, seed^uint64(rep)*7, nil)
		}},
		{"without self", func(rep int) engine.Engine {
			return engine.NewGraphEngine(dynamics.ThreeMajority{},
				topo.Complete{Vertices: n, IncludeSelf: false},
				colorcfg.Biased(n, k, s), 2, seed^uint64(rep)*11, nil)
		}},
	}
	for _, v := range variants {
		v := v
		type out struct {
			rounds float64
			won    bool
		}
		results := ParallelReps(p, reps, seed+hashName(v.name), func(rep int, r *rng.Rand) out {
			e := v.mk(rep)
			defer e.Close()
			res := core.Run(e, core.Options{MaxRounds: 50_000, Rand: r})
			return out{rounds: float64(res.Rounds), won: res.WonInitialPlurality}
		})
		rounds := make([]float64, len(results))
		wins := 0
		for i, o := range results {
			rounds[i] = o.rounds
			if o.won {
				wins++
			}
		}
		sm := stats.Summarize(rounds)
		t.AddRow(v.name, fmtF(sm.Mean), fmtF(sm.Std), fmt.Sprintf("%d/%d", wins, len(results)))
	}
	return []*Table{t}
}

// runE16 compares the synchronous process with its sequential
// (population-model) counterpart, counting one round as n micro-steps.
// The asynchronous chain has the same drift per n updates, so round counts
// should be comparable — the paper's parallel model is not load-bearing
// for the upper-bound shape, only for the w.h.p. concentration argument.
func runE16(p Profile, seed uint64) []*Table {
	n := p.N / 4
	ks := []int{2, 8, 32}
	if quickish(p) {
		ks = []int{2, 8}
	}
	t := &Table{
		ID:    "E16",
		Title: "synchronous vs sequential 3-majority (1 round = n micro-steps)",
		Note: fmt.Sprintf("n=%d, Cor-1 bias, %d reps; prediction: comparable round counts — the dynamics' drift, not the scheduler, sets the timescale",
			n, p.Reps),
		Columns: []string{"k", "sync_rounds", "sync_won", "async_rounds", "async_won", "ratio"},
	}
	for _, k := range ks {
		k := k
		s := core.Corollary1Bias(n, k, 1.0)
		type out struct {
			rounds float64
			won    bool
		}
		sync := ParallelReps(p, p.Reps, seed+uint64(k), func(_ int, r *rng.Rand) out {
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
			res := core.Run(e, core.Options{MaxRounds: 100_000, Rand: r})
			return out{rounds: float64(res.Rounds), won: res.WonInitialPlurality}
		})
		async := ParallelReps(p, p.Reps, seed+uint64(k)+13, func(_ int, r *rng.Rand) out {
			e := engine.NewPopulation(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
			res := core.Run(e, core.Options{MaxRounds: 100_000, Rand: r})
			return out{rounds: float64(res.Rounds), won: res.WonInitialPlurality}
		})
		sum := func(os []out) (float64, int) {
			tot, wins := 0.0, 0
			for _, o := range os {
				tot += o.rounds / float64(len(os))
				if o.won {
					wins++
				}
			}
			return tot, wins
		}
		sm, sw := sum(sync)
		am, aw := sum(async)
		t.AddRow(fmt.Sprintf("%d", k), fmtF(sm), fmt.Sprintf("%d/%d", sw, len(sync)),
			fmtF(am), fmt.Sprintf("%d/%d", aw, len(async)), fmtF(am/math.Max(sm, 1)))
	}
	return []*Table{t}
}
