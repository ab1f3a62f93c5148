// Byzantine: Corollary 4's self-stabilization claim, live. An F-bounded
// dynamic adversary moves F agents per round from the plurality color to
// its strongest rival. For F below the Lemma-3 per-round bias gain s/(4λ)
// the process still reaches and holds M-plurality consensus; cranking F
// past the gain stalls it.
//
//	go run ./examples/byzantine
package main

import (
	"fmt"

	"plurality/internal/adversary"
	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
)

func main() {
	const (
		n = 400_000
		k = 4
	)
	lambda := core.Lambda(n, k)
	s := core.Corollary1Bias(n, k, 1.0)
	gain := float64(s) / (4 * lambda)
	fmt.Printf("n=%d k=%d bias=%d λ=%.3g — Lemma-3 per-round gain s/4λ ≈ %.0f agents\n\n",
		n, k, s, lambda, gain)
	fmt.Printf("%-12s %-12s %-10s %-14s %s\n",
		"F", "F/(s/4λ)", "reached", "rounds", "worst minority in 200-round window")

	for _, f := range []int64{0, int64(gain / 10), int64(gain / 2), int64(2 * gain)} {
		m := int64(core.SelfStabilizationResidue(s, lambda)) + 10*f
		r := rng.New(uint64(f) + 99)
		eng := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
		adv := adversary.Strongest{F: f}
		res := core.Run(eng, core.Options{
			MaxRounds: 2_000,
			Rand:      r,
			Adversary: adv,
			Stop:      core.WhenMPlurality(n, m),
		})
		worst := int64(-1)
		if res.Stopped {
			// Almost-stability window: the adversary keeps attacking, the
			// residue must stay bounded (Corollary 4's poly(n)-length phase,
			// sampled here for 200 rounds).
			worst = 0
			c := res.Final
			for i := 0; i < 200; i++ {
				eng.Step(r)
				c = eng.AppendConfig(c[:0])
				adv.Corrupt(eng, c, r)
				c = eng.AppendConfig(c[:0])
				first, _ := c.TopTwo()
				if mass := n - first; mass > worst {
					worst = mass
				}
			}
		}
		status := fmt.Sprintf("yes, M=%d", m)
		if !res.Stopped {
			status = "stalled"
		}
		worstStr := "-"
		if worst >= 0 {
			worstStr = fmt.Sprintf("%d agents (M=%d)", worst, m)
		}
		fmt.Printf("%-12d %-12.2f %-10s %-14d %s\n",
			f, float64(f)/gain, status, res.Rounds, worstStr)
	}
}
