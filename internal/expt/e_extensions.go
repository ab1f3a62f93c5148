package expt

import (
	"fmt"
	"math"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/rng"
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
	for _, k := range ks {
		s := core.Corollary1Bias(n, k, 1.0)
		// meanRounds averages p.Reps runs of keep-own (markov) or
		// 3-majority from init until stop, capped at 200,000 rounds.
		meanRounds := func(markov bool, init colorcfg.Config, stop core.StopFunc, base uint64) float64 {
			return runReps(p, p.Reps, base, func(_ int, r *rng.Rand) mc.Record {
				var e engine.Engine
				if markov {
					e = engine.NewCliqueMarkov(dynamics.TwoChoicesKeepOwn{}, init)
				} else {
					e = engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
				}
				return outcome(core.Run(e, core.Options{MaxRounds: 200_000, Rand: r, Stop: stop}))
			}).Rounds().Mean
		}
		biased, balanced := colorcfg.Biased(n, k, s), colorcfg.Balanced(n, k)
		kb := meanRounds(true, biased, nil, seed+uint64(k)*7)
		jb := meanRounds(false, biased, nil, seed+uint64(k)*7+1)
		kd := meanRounds(true, balanced, whenLeaderDoubles(n, k), seed+uint64(k)*19+2)
		jd := meanRounds(false, balanced, whenLeaderDoubles(n, k), seed+uint64(k)*19+3)
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
		agg := runReps(p, reps, seed+hashName(v.name), func(rep int, r *rng.Rand) mc.Record {
			e := v.mk(rep)
			defer e.Close()
			return outcome(core.Run(e, core.Options{MaxRounds: 50_000, Rand: r}))
		})
		sm := agg.Rounds()
		t.AddRow(v.name, fmtF(sm.Mean), fmtF(sm.Std), fmtWins(agg))
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
		s := core.Corollary1Bias(n, k, 1.0)
		run := func(async bool, base uint64) *mc.Agg {
			return runReps(p, p.Reps, base, func(_ int, r *rng.Rand) mc.Record {
				var e engine.Engine
				if async {
					e = engine.NewPopulation(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
				} else {
					e = engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
				}
				return outcome(core.Run(e, core.Options{MaxRounds: 100_000, Rand: r}))
			})
		}
		sync, async := run(false, seed+uint64(k)), run(true, seed+uint64(k)+13)
		sm, am := sync.Rounds().Mean, async.Rounds().Mean
		t.AddRow(fmt.Sprintf("%d", k), fmtF(sm), fmtWins(sync),
			fmtF(am), fmtWins(async), fmtF(am/math.Max(sm, 1)))
	}
	return []*Table{t}
}
