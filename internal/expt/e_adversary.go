package expt

import (
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
	"plurality/internal/stats"
)

func init() {
	register("E8", "Corollary 4 — self-stabilization against an F-bounded adversary", runE8)
}

// runE8 sweeps the adversary budget F around the Corollary 4 threshold
// s/λ. For F well below s/(4λ) (the per-round bias gain of Lemma 3) the
// process reaches M-plurality consensus with M = s/λ + 10F in O(λ·ln n)
// rounds and then *stays* there (the stability window column tracks the
// worst minority mass over a post-convergence window). Budgets at or above
// the per-round gain stall or reverse the process — the threshold the
// corollary's F = o(s/λ) condition protects against.
func runE8(p Profile, seed uint64) []*Table {
	n := p.N * 2
	k := 4
	lambda := core.Lambda(n, k)
	s := core.Corollary1Bias(n, k, 1.0)
	gain := float64(s) / (4 * lambda) // Lemma 3 per-round bias gain at the start
	budgets := []int64{0, int64(gain / 16), int64(gain / 4), int64(gain), int64(4 * gain)}
	if quickish(p) {
		budgets = []int64{0, int64(gain / 4), int64(4 * gain)}
	}
	const window = 100
	t := &Table{
		ID:    "E8",
		Title: "3-majority vs F-bounded 'strongest-rival' adversary",
		Note: fmt.Sprintf("n=%d, k=%d, s=%d, λ=%.3g, Lemma-3 gain s/4λ=%.0f, %d reps; Corollary 4: for F = o(s/λ), O(s/λ + F)-plurality is reached and held; F ≳ gain stalls the process",
			n, k, s, lambda, gain, p.Reps),
		Columns: []string{"F", "F/(s/4λ)", "reached_Mplur", "rounds_mean", "window_worst_minority", "plurality_survived"},
	}
	for _, f := range budgets {
		m := int64(core.SelfStabilizationResidue(s, lambda)) + 10*f
		type out struct {
			reached   bool
			rounds    float64
			worstMass int64
			survived  bool
		}
		results := ParallelReps(p, p.Reps, seed+uint64(f)*3, func(_ int, r *rng.Rand) out {
			init := colorcfg.Biased(n, k, s)
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			adv := adversary.Strongest{F: f}
			res := core.Run(e, core.Options{
				MaxRounds: 3000,
				Rand:      r,
				Adversary: adv,
				Stop:      core.WhenMPlurality(n, m),
			})
			o := out{reached: res.Stopped, rounds: float64(res.Rounds)}
			if !res.Stopped {
				o.survived = res.Final.Plurality() == 0
				return o
			}
			// Stability window: keep the adversary running and record the
			// worst minority mass (Corollary 4's "almost-stability" phase).
			// The run's final configuration is the window's buffer, refilled
			// for the adversary after each Step and again after it.
			c := res.Final
			for i := 0; i < window; i++ {
				e.Step(r)
				c = e.AppendConfig(c[:0])
				adv.Corrupt(e, c, r)
				c = e.AppendConfig(c[:0])
				first, _ := c.TopTwo()
				if mass := n - first; mass > o.worstMass {
					o.worstMass = mass
				}
			}
			o.survived = c.Plurality() == 0
			return o
		})
		reached := 0
		survived := 0
		rounds := make([]float64, 0, len(results))
		var worst int64
		for _, o := range results {
			if o.reached {
				reached++
				rounds = append(rounds, o.rounds)
				if o.worstMass > worst {
					worst = o.worstMass
				}
			}
			if o.survived {
				survived++
			}
		}
		meanRounds := 0.0
		if len(rounds) > 0 {
			meanRounds = stats.Mean(rounds)
		}
		t.AddRow(fmtI(f), fmtF(float64(f)/gain),
			fmt.Sprintf("%d/%d", reached, len(results)),
			fmtF(meanRounds), fmtI(worst),
			fmt.Sprintf("%d/%d", survived, len(results)))
	}
	return []*Table{t}
}
