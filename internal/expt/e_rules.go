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
	register("E4", "Theorem 3 — only uniform clear-majority rules solve plurality", runE4)
	register("E5", "Theorem 4 — h-plurality speedup is only ~h²", runE5)
}

// runE4 runs the Theorem 3 rule zoo from the Lemma 8 starting shape
// (n/3 + s, n/3, n/3 − s) with s = 5% of n and reports how often each rule
// drives the network to the *initial plurality* color. Rules with both the
// clear-majority and uniform properties (3-majority) must win essentially
// always; every other rule fails with at least constant probability
// (median-like rules converge to the middle color; polling-like rules to a
// proportional lottery).
func runE4(p Profile, seed uint64) []*Table {
	n := p.N / 2
	if n < 3000 {
		n = 3000
	}
	if n > 30000 {
		n = 30000 // the agent-sampled engine is O(n) per round
	}
	s := n / 20
	// Generous horizon: 3-majority needs tens of rounds here; rules that
	// have not reached plurality consensus within the cap have long
	// dissolved the initial bias (the polling-like rule wanders for Θ(n)
	// rounds toward a proportional lottery) and count as failures.
	maxRounds := 1500
	t := &Table{
		ID:    "E4",
		Title: "plurality success rate of the 3-input rule zoo",
		Note: fmt.Sprintf("n=%d, start (n/3+s, n/3, n/3−s) with s=n/20 planted on each rule's weakest rainbow rank (Lemma 8), %d reps, horizon %d rounds; Theorem 3: only rules with clear-majority AND uniform properties succeed from o(n) bias",
			n, p.Reps, maxRounds),
		Columns: []string{"rule", "clear-majority", "uniform", "won_plurality", "rate", "wilson95"},
	}
	probeRng := rng.New(seed ^ 0xabc)
	for _, rule := range dynamics.RuleZoo() {
		clear := dynamics.HasClearMajority(rule, []colorcfg.Color{0, 1, 2, 3}, probeRng)
		uniform := dynamics.IsUniform(rule, 0, 1, 2, probeRng, 1, 0.01)
		// Lemma 8 plants the plurality on the color the rule treats worst:
		// the rank (lo/mid/hi) with the smallest rainbow δ. Uniform rules
		// have no weak rank, so the placement is irrelevant for them.
		weak := 0
		if pr, ok := rule.(*dynamics.PermutationRule); ok {
			dLo, dMid, dHi := pr.DeltaProfile()
			if dMid < dLo {
				weak = 1
			}
			if dHi < []int{dLo, dMid, dHi}[weak] {
				weak = 2
			}
		}
		agg := runReps(p, p.Reps, seed+hashName(rule.Name()), func(rep int, r *rng.Rand) mc.Record {
			// Lemma 8 shape (x+s, x, x−s) with the leader on the weak
			// rank; rounding absorbed by the leader.
			x := n / 3
			init := colorcfg.New(3)
			init[weak] = x + s + n - 3*x
			init[(weak+1)%3] = x
			init[(weak+2)%3] = x - s
			e := engine.NewCliqueSampled(rule, init, 1, seed^uint64(rep)*0x9e37+hashName(rule.Name()))
			defer e.Close()
			return outcome(core.Run(e, core.Options{
				MaxRounds: maxRounds,
				Rand:      r,
				Stop:      core.Any(core.WhenMonochromatic(), core.WhenColorDead(0)),
			}))
		})
		lo, hi := agg.Wilson(1.96)
		t.AddRow(rule.Name(), fmt.Sprintf("%v", clear), fmt.Sprintf("%v", uniform),
			fmtWins(agg), fmtF(agg.SuccessRate()),
			fmt.Sprintf("[%.2f,%.2f]", lo, hi))
	}
	return []*Table{t}
}

// hashName derives a stable seed offset from a rule name.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// runE5 sweeps the sample size h of the h-plurality dynamics from the
// near-balanced Theorem 4 start (max c_j <= 3n/(2k)) and measures the time
// for the leading color to double to 2n/k — exactly the quantity Theorem 4
// lower-bounds by Ω(k/h²). The normalized column rounds·h²/k should stay
// bounded away from 0 (and roughly flat), showing that growing h buys only
// a quadratic speedup.
func runE5(p Profile, seed uint64) []*Table {
	n := p.N
	k := 32
	hs := []int{3, 5, 9, 17, 33}
	if quickish(p) {
		n = p.N / 2
		hs = []int{3, 9, 17}
	}
	t := &Table{
		ID:    "E5",
		Title: "h-plurality: doubling time vs sample size h (balanced start)",
		Note: fmt.Sprintf("n=%d, k=%d, balanced start, %d reps; Theorem 4: doubling time = Ω(k/h²), so rounds·h²/k ≳ const",
			n, k, p.Reps),
		Columns: []string{"h", "rounds_to_2n/k_mean", "rounds_std", "rounds·h²/k", "speedup_vs_h3", "samples/agent"},
	}
	var base float64
	for _, h := range hs {
		agg := runReps(p, p.Reps, seed+uint64(h)*131, func(rep int, r *rng.Rand) mc.Record {
			e := engine.NewCliqueSampled(dynamics.NewHPlurality(h), colorcfg.Balanced(n, k), 1, seed^(uint64(h)<<32)^uint64(rep))
			defer e.Close()
			return outcome(core.Run(e, core.Options{MaxRounds: 100_000, Rand: r, Stop: whenLeaderDoubles(n, k)}))
		})
		sum := agg.Rounds()
		if h == hs[0] {
			base = sum.Mean
		}
		norm := sum.Mean * float64(h*h) / float64(k)
		speedup := base / math.Max(sum.Mean, 1e-9)
		// Communication: every agent pulls h colors per round, so the
		// total per-agent sample traffic is rounds·h — the quantity the
		// paper's "scalable protocols need small h" remark is about.
		t.AddRow(fmt.Sprintf("%d", h), fmtF(sum.Mean), fmtF(sum.Std), fmtF(norm),
			fmtF(speedup), fmtF(sum.Mean*float64(h)))
	}
	return []*Table{t}
}
