package expt

import (
	"fmt"
	"math"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/exact"
	"plurality/internal/meanfield"
	"plurality/internal/rng"
	"plurality/internal/stats"
)

func init() {
	register("E17", "Validation — simulators vs the exact Markov chain", runE17)
	register("E18", "Validation — stochastic process vs mean-field recursion", runE18)
}

// runE17 solves the full configuration chain exactly for a small system
// (linear algebra, no sampling) and compares absorption probabilities and
// expected absorption times against Monte-Carlo estimates from the
// engines. Agreement here certifies the whole simulation stack end to
// end; polling doubles as an analytic control (its absorption law is the
// martingale c_j/n exactly).
func runE17(p Profile, seed uint64) []*Table {
	n := int64(15)
	start := colorcfg.FromCounts(7, 5, 3)
	reps := p.Reps * 1000
	t := &Table{
		ID:    "E17",
		Title: "exact chain vs Monte-Carlo (n=15, k=3, start (7,5,3))",
		Note: fmt.Sprintf("%d Monte-Carlo reps per rule; exact values from the absorbing-chain linear system; polling's exact column must equal the martingale (7/15, 5/15, 3/15)",
			reps),
		Columns: []string{"rule", "quantity", "exact", "monte-carlo", "|z|"},
	}
	rules := []struct {
		name  string
		model dynamics.ProbModel
		rule  dynamics.Rule
	}{
		{"3-majority", dynamics.ThreeMajority{}, dynamics.ThreeMajority{}},
		{"median", dynamics.Median{}, dynamics.Median{}},
		{"polling", dynamics.Polling{}, dynamics.Polling{}},
	}
	for _, rl := range rules {
		chain := exact.New(n, 3, rl.model)
		wantProbs, wantTime := chain.AbsorptionFrom(start)

		results := ParallelReps(p, reps, seed+hashName(rl.name), func(_ int, r *rng.Rand) core.Result {
			return core.Run(engine.NewCliqueMultinomial(rl.rule, start), core.Options{Rand: r})
		})
		wins := make([]int, 3)
		rounds := make([]float64, len(results))
		meanRounds := 0.0
		for i, res := range results {
			wins[res.Winner]++
			rounds[i] = float64(res.Rounds)
			meanRounds += rounds[i] / float64(len(results))
		}
		for j := 0; j < 3; j++ {
			got := float64(wins[j]) / float64(len(results))
			se := math.Sqrt(wantProbs[j]*(1-wantProbs[j])/float64(len(results))) + 1e-12
			t.AddRow(rl.name, fmt.Sprintf("P(absorb color %d)", j),
				fmt.Sprintf("%.5f", wantProbs[j]), fmt.Sprintf("%.5f", got),
				fmtF(math.Abs(got-wantProbs[j])/se))
		}
		// Expected time z-score against the replicate spread.
		sm := stats.Summarize(rounds)
		se := sm.Std/math.Sqrt(float64(sm.N)) + 1e-12
		t.AddRow(rl.name, "E[rounds]",
			fmt.Sprintf("%.4f", wantTime), fmt.Sprintf("%.4f", meanRounds),
			fmtF(math.Abs(meanRounds-wantTime)/se))
	}
	return []*Table{t}
}

// runE18 measures how far the n-agent stochastic process strays from the
// deterministic mean-field recursion over a fixed 10-round window,
// sweeping n. Concentration predicts max-round L1 deviation Θ(1/sqrt n):
// the fitted log-log slope should be ≈ -1/2.
func runE18(p Profile, seed uint64) []*Table {
	ns := []int64{1000, 4000, 16000, 64000, 256000}
	if quickish(p) {
		ns = []int64{1000, 16000, 256000}
	}
	const rounds = 10
	k := 4
	t := &Table{
		ID:    "E18",
		Title: "stochastic vs mean-field: L1 deviation over 10 rounds vs n",
		Note: fmt.Sprintf("k=%d, 20%%-biased start, %d reps; prediction: deviation ∝ n^(-1/2) — the log-log slope row reports the fit",
			k, p.Reps),
		Columns: []string{"n", "mean_L1_deviation", "deviation·sqrt(n)"},
	}
	devs := make([]float64, 0, len(ns))
	for _, n := range ns {
		init := colorcfg.Biased(n, k, n/5)
		mf := meanfield.Iterate(dynamics.ThreeMajority{}, init.Fractions(), rounds)
		results := ParallelReps(p, p.Reps, seed+uint64(n), func(_ int, r *rng.Rand) float64 {
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			worst := 0.0
			for tt := 1; tt <= rounds; tt++ {
				e.Step(r)
				d := meanfield.Distance(e.Config().Fractions(), mf[tt])
				if d > worst {
					worst = d
				}
			}
			return worst
		})
		mean := stats.Mean(results)
		devs = append(devs, mean)
		t.AddRow(fmtI(n), fmtF(mean), fmtF(mean*math.Sqrt(float64(n))))
	}
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	fit := stats.LogLogSlope(xs, devs)
	t.Note += fmt.Sprintf(" | fitted slope: %.3f (R²=%.3f)", fit.Slope, fit.R2)
	return []*Table{t}
}
