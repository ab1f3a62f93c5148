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
)

func init() {
	register("E19", "Fault injection — lazy/crashed agents slow 3-majority by only 1/(1−q)", runE19)
}

// runE19 injects omission faults: each round every agent independently
// fails to update with probability q (keeping its color). The faulted
// chain's drift is the original drift scaled by (1−q), so the convergence
// time should grow by ≈ 1/(1−q) and the winner should never change — a
// robustness property beyond the paper's Byzantine model (Corollary 4
// covers adaptive corruption; this covers benign crash/omission faults).
func runE19(p Profile, seed uint64) []*Table {
	n := p.N
	k := 8
	s := core.Corollary1Bias(n, k, 1.0)
	qs := []float64{0, 0.25, 0.5, 0.75, 0.9}
	if quickish(p) {
		qs = []float64{0, 0.5, 0.9}
	}
	t := &Table{
		ID:    "E19",
		Title: "3-majority with omission faults: rounds vs failure probability q",
		Note: fmt.Sprintf("n=%d, k=%d, Cor-1 bias, %d reps; prediction: rounds ≈ rounds(q=0)/(1−q), success unaffected",
			n, k, p.Reps),
		Columns: []string{"q", "rounds_mean", "rounds_std", "success", "rounds·(1−q)", "slowdown_vs_pred"},
	}
	var base float64
	for _, q := range qs {
		agg := runReps(p, p.Reps, seed+uint64(q*1000), func(_ int, r *rng.Rand) mc.Record {
			init := colorcfg.Biased(n, k, s)
			var e engine.Engine
			if q == 0 {
				e = engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			} else {
				e = engine.NewCliqueMarkov(dynamics.NewLazy(dynamics.ThreeMajority{}, q), init)
			}
			return outcome(core.Run(e, core.Options{MaxRounds: 200_000, Rand: r}))
		})
		sm := agg.Rounds()
		if q == 0 {
			base = sm.Mean
		}
		predicted := base / (1 - q)
		t.AddRow(fmtF(q), fmtF(sm.Mean), fmtF(sm.Std),
			fmtWins(agg),
			fmtF(sm.Mean*(1-q)), fmtF(sm.Mean/math.Max(predicted, 1e-9)))
	}
	return []*Table{t}
}
