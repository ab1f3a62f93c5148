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
	register("E7", "Median vs 3-majority — the exponential time/answer gap", runE7)
	register("E10", "Polling & 2-choices fail; 3-majority does not", runE10)
	register("E11", "Undecided-state dynamics — md-linear time and plurality death", runE11)
}

// runE7 contrasts the median dynamics (Doerr et al.) with 3-majority on the
// same biased k-color inputs. Median stabilizes in O(log n) rounds
// regardless of k — but on an approximate median color, not the plurality —
// while 3-majority takes Θ(k·ln n) and returns the right answer. The two
// columns "rounds" and "won plurality" make both halves of the gap visible:
// as k grows the time ratio diverges (exponentially in the exponent of
// k = n^a) and median's plurality success stays ≈ 0.
func runE7(p Profile, seed uint64) []*Table {
	n := p.N
	ks := []int{8, 16, 32, 64, 128}
	if quickish(p) {
		ks = []int{8, 32}
	}
	t := &Table{
		ID:    "E7",
		Title: "median vs 3-majority: rounds and correctness vs k",
		Note: fmt.Sprintf("n=%d, Theorem-2-style start with slight plurality on color 0, %d reps; prediction: median rounds ≈ O(ln n) flat, 3-majority rounds ∝ k·ln n, median never returns the plurality",
			n, p.Reps),
		Columns: []string{"k", "median_rounds", "median_won", "3maj_rounds", "3maj_won", "time_ratio"},
	}
	for _, k := range ks {
		run := func(rule dynamics.Rule, offset uint64) *mc.Agg {
			return runReps(p, p.Reps, seed+uint64(k)*31+offset, func(_ int, r *rng.Rand) mc.Record {
				// Near-balanced start with a small planted plurality on
				// color 0 — enough for 3-majority to find, invisible to
				// median (whose fixed point is the middle color).
				e := engine.NewCliqueMultinomial(rule, colorcfg.Theorem2(n, k, 0.4))
				return outcome(core.Run(e, core.Options{MaxRounds: 500_000, Rand: r}))
			})
		}
		med := run(dynamics.Median{}, 0)
		maj := run(dynamics.ThreeMajority{}, 7777)
		ms, js := med.Rounds().Mean, maj.Rounds().Mean
		t.AddRow(fmt.Sprintf("%d", k),
			fmtF(ms), fmtWins(med),
			fmtF(js), fmtWins(maj),
			fmtF(js/math.Max(ms, 1)))
	}
	return []*Table{t}
}

// runE10 reproduces the paper's motivation for sampling three: the polling
// (1-majority) dynamics converges to the minority color with constant
// probability even for k = 2 and bias s = n/2, and 2-choices with uniform
// tie-breaking is provably the same process. 3-majority's failure
// probability vanishes. The voter-model martingale predicts polling's
// minority-win probability = initial minority share = 1/4 independent of n.
func runE10(p Profile, seed uint64) []*Table {
	reps := p.Reps * 10
	ns := []int64{1000, 4000, 16000}
	if quickish(p) {
		ns = []int64{1000, 4000}
	}
	rules := []dynamics.Rule{dynamics.Polling{}, dynamics.TwoChoices{}, dynamics.ThreeMajority{}}
	t := &Table{
		ID:    "E10",
		Title: "P(converge to minority) for k=2, c = (3n/4, n/4)",
		Note: fmt.Sprintf("%d reps; voter-model prediction: polling and 2-choices lose with prob ≈ 0.25 at every n and take Θ(n) rounds; 3-majority loses with prob → 0 in O(log n) rounds",
			reps),
		Columns: []string{"rule", "n", "P(minority_wins)", "wilson95", "rounds_mean"},
	}
	for _, rule := range rules {
		for _, n := range ns {
			agg := runReps(p, reps, seed+hashName(rule.Name())+uint64(n), func(_ int, r *rng.Rand) mc.Record {
				e := engine.NewCliqueMultinomial(rule, colorcfg.FromCounts(3*n/4, n/4))
				res := core.Run(e, core.Options{MaxRounds: 2_000_000, Rand: r})
				// Success is the failure this table counts, not the
				// paper's success event: the minority color 1 wins.
				return mc.Record{Rounds: res.Rounds, Success: res.Stopped && res.Winner == 1}
			})
			lo, hi := agg.Wilson(1.96)
			t.AddRow(rule.Name(), fmtI(n), fmtF(agg.SuccessRate()),
				fmt.Sprintf("[%.3f,%.3f]", lo, hi), fmtF(agg.Rounds().Mean))
		}
	}
	return []*Table{t}
}

// runE11 measures the undecided-state dynamics. Table 1: rounds to full
// consensus across configuration shapes with increasing monochromatic
// distance md(c); the SODA'15 analysis predicts time ≈ Θ(md·ln n), so the
// normalized column is roughly flat, while 3-majority on the same inputs
// is governed by bias/λ, not md. Table 2: the k = ω(sqrt n) failure mode —
// from a balanced configuration with k = n/2 colors the plurality color
// dies within a few rounds with probability ≈ 1.
func runE11(p Profile, seed uint64) []*Table {
	n := p.N
	type shape struct {
		name string
		mk   func() colorcfg.Config
	}
	shapes := []shape{
		{"planted c1=n/2", func() colorcfg.Config { return colorcfg.PlantedLeader(n, 64, n/2) }},
		{"two-block k=8", func() colorcfg.Config { return colorcfg.TwoBlock(n, 8, n/50, 0.95) }},
		{"near-balanced k=4", func() colorcfg.Config { return colorcfg.Biased(n, 4, n/100) }},
		{"near-balanced k=16", func() colorcfg.Config { return colorcfg.Biased(n, 16, n/100) }},
		{"near-balanced k=64", func() colorcfg.Config { return colorcfg.Biased(n, 64, n/100) }},
	}
	if quickish(p) {
		shapes = shapes[:4]
	}
	t1 := &Table{
		ID:    "E11",
		Title: "undecided-state dynamics: rounds vs monochromatic distance",
		Note: fmt.Sprintf("n=%d, %d reps; prediction: undecided rounds ≈ Θ(md·ln n) — normalized column flat; 3-majority columns for reference",
			n, p.Reps),
		Columns: []string{"shape", "md(c)", "und_rounds", "und/(md·ln n)", "und_won", "3maj_rounds"},
	}
	for _, sh := range shapes {
		md := sh.mk().MonochromaticDistance()
		und := runReps(p, p.Reps, seed+hashName(sh.name), func(_ int, r *rng.Rand) mc.Record {
			e := engine.NewUndecidedExact(sh.mk())
			return outcome(core.Run(e, core.Options{
				MaxRounds: 500_000,
				Rand:      r,
				Stop:      core.WhenConsensusOf(n),
			}))
		})
		maj := runReps(p, p.Reps, seed+hashName(sh.name)+99, func(_ int, r *rng.Rand) mc.Record {
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, sh.mk())
			return outcome(core.Run(e, core.Options{MaxRounds: 500_000, Rand: r}))
		})
		um := und.Rounds().Mean
		t1.AddRow(sh.name, fmtF(md), fmtF(um),
			fmtF(um/(md*math.Log(float64(n)))),
			fmtWins(und),
			fmtF(maj.Rounds().Mean))
	}

	// Table 2: plurality death at k = ω(sqrt n).
	t2 := &Table{
		ID:    "E11b",
		Title: "undecided-state dynamics: plurality death at k = n/2",
		Note:  "balanced config, 2 agents per color, +1 planted on color 0; P(color 0 extinct within 10 rounds) should be ≈ 1 for the undecided dynamics (SODA'15 §3 failure mode), while 3-majority retains color 0 with constant probability",
		Columns: []string{
			"n", "k", "rule", "P(plurality_dead_by_r10)", "wilson95",
		},
	}
	nd := p.N / 2
	kd := int(nd / 2)
	for _, cfg := range []struct {
		name   string
		und    bool
		offset uint64
	}{{"undecided", true, 555}, {"3-majority", false, 556}} {
		agg := runReps(p, p.Reps, seed+cfg.offset, func(_ int, r *rng.Rand) mc.Record {
			init := colorcfg.Balanced(nd, kd)
			init[0]++
			init[kd-1]--
			var e engine.Engine
			if cfg.und {
				e = engine.NewUndecidedExact(init)
			} else {
				e = engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			}
			res := core.Run(e, core.Options{MaxRounds: 10, Rand: r, Stop: core.WhenColorDead(0)})
			// Success is the failure this table counts, not the paper's
			// success event: color 0 dies within the 10 rounds.
			return mc.Record{Rounds: res.Rounds, Success: res.Stopped}
		})
		lo, hi := agg.Wilson(1.96)
		t2.AddRow(fmtI(nd), fmt.Sprintf("%d", kd), cfg.name,
			fmtWins(agg), fmt.Sprintf("[%.2f,%.2f]", lo, hi))
	}
	return []*Table{t1, t2}
}
