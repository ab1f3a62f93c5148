package expt

import (
	"fmt"
	"math"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/stats"
)

func init() {
	register("E1", "Theorem 1 / Corollary 1 — 3-majority upper bound scaling", runE1)
	register("E2", "Corollaries 2/3 — polylogarithmic regime via large c1", runE2)
	register("E3", "Theorem 2 — Ω(k log n) lower bound from balanced starts", runE3)
}

// quickish reports whether the profile is a scaled-down run.
func quickish(p Profile) bool { return p.Reps <= 10 }

// runE1 sweeps k at fixed n with the Corollary 1 bias and measures the
// convergence time of 3-majority to the initial plurality. The paper
// predicts rounds = Θ(min{2k, (n/ln n)^(1/3)}·ln n): the normalized column
// rounds/(λ·ln n) should be flat across the sweep, and the success rate 1.
func runE1(p Profile, seed uint64) []*Table {
	n := p.N
	ks := []int{2, 4, 8, 16, 32, 64, 128}
	if quickish(p) {
		ks = []int{2, 8, 32}
	}
	t := &Table{
		ID:    "E1",
		Title: "3-majority rounds to plurality consensus vs k (clique)",
		Note: fmt.Sprintf("n=%d, bias s = sqrt(λ n ln n) (Cor. 1 shape, practical constant 1), %d reps; prediction: rounds/(λ ln n) ≈ const, success = 1",
			n, p.Reps),
		Columns: []string{"k", "lambda", "bias_s", "success", "rounds_mean", "rounds_std", "rounds/(λ·ln n)"},
	}
	for _, k := range ks {
		lambda := core.Lambda(n, k)
		s := core.Corollary1Bias(n, k, 1.0)
		results := ParallelReps(p, p.Reps, seed+uint64(k), func(_ int, r *rng.Rand) core.Result {
			init := colorcfg.Biased(n, k, s)
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			return core.Run(e, core.Options{MaxRounds: 200_000, Rand: r})
		})
		rounds := make([]float64, 0, len(results))
		wins := 0
		for _, res := range results {
			rounds = append(rounds, float64(res.Rounds))
			if res.WonInitialPlurality {
				wins++
			}
		}
		sum := stats.Summarize(rounds)
		norm := sum.Mean / (lambda * math.Log(float64(n)))
		t.AddRow(fmt.Sprintf("%d", k), fmtF(lambda), fmtI(s),
			fmt.Sprintf("%d/%d", wins, len(results)),
			fmtF(sum.Mean), fmtF(sum.Std), fmtF(norm))
	}
	return []*Table{t}
}

// runE2 exercises the Theorem 1 general form: when c1 >= n/λ the time is
// O(λ·ln n) regardless of k. The sweep plants a leader with c1 = n/λ among
// k = sqrt(n) colors — k is enormous, yet the time tracks λ·ln n, which is
// polylogarithmic for λ = polylog(n) (Corollary 2) and Θ(log n) for
// constant λ (Corollary 3).
func runE2(p Profile, seed uint64) []*Table {
	n := p.N
	k := int(math.Sqrt(float64(n)))
	lambdas := []float64{2, 4, 8, 16}
	if quickish(p) {
		lambdas = []float64{2, 8}
	}
	t := &Table{
		ID:    "E2",
		Title: "rounds vs λ with planted leader c1 = n/λ and k = sqrt(n) colors",
		Note: fmt.Sprintf("n=%d, k=%d, s = sqrt(λ n ln n), %d reps; prediction: rounds ≈ const·λ·ln n independent of k",
			n, k, p.Reps),
		Columns: []string{"lambda", "c1", "bias_s", "success", "rounds_mean", "rounds/(λ·ln n)"},
	}
	for _, lambda := range lambdas {
		s := core.PracticalBias(n, lambda, 1.0)
		c1 := int64(float64(n) / lambda)
		// Ensure the planted leader actually realizes the required bias.
		perOther := (n - c1) / int64(k-1)
		if c1-perOther < s {
			c1 = perOther + s
		}
		results := ParallelReps(p, p.Reps, seed+uint64(lambda*1000), func(_ int, r *rng.Rand) core.Result {
			init := colorcfg.PlantedLeader(n, k, c1)
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			return core.Run(e, core.Options{MaxRounds: 200_000, Rand: r})
		})
		rounds := make([]float64, 0, len(results))
		wins := 0
		for _, res := range results {
			rounds = append(rounds, float64(res.Rounds))
			if res.WonInitialPlurality {
				wins++
			}
		}
		sum := stats.Summarize(rounds)
		t.AddRow(fmtF(lambda), fmtI(c1), fmtI(s),
			fmt.Sprintf("%d/%d", wins, len(results)),
			fmtF(sum.Mean), fmtF(sum.Mean/(lambda*math.Log(float64(n)))))
	}
	return []*Table{t}
}

// runE3 measures the Theorem 2 lower bound: from the near-balanced
// configuration (max c_j <= n/k + (n/k)^(1-ε)) the dynamics needs
// Ω(k·ln n) rounds, already to double the leading color to 2n/k. The
// normalized columns divide by k·ln n and should be bounded away from 0.
func runE3(p Profile, seed uint64) []*Table {
	n := p.N
	ks := []int{4, 8, 16, 32, 64}
	if quickish(p) {
		ks = []int{4, 16}
	}
	const eps = 0.5
	t := &Table{
		ID:    "E3",
		Title: "rounds from balanced start: doubling time and consensus time vs k",
		Note: fmt.Sprintf("n=%d, Theorem-2 start (imbalance (n/k)^%0.1f), %d reps; prediction: both times = Ω(k·ln n), i.e. normalized columns stay ≳ const > 0",
			n, 1-eps, p.Reps),
		Columns: []string{"k", "rounds_to_2n/k", "rounds_to_consensus", "double/(k·ln n)", "consensus/(k·ln n)"},
	}
	for _, k := range ks {
		k := k
		type outcome struct{ double, total float64 }
		results := ParallelReps(p, p.Reps, seed+uint64(k)*17, func(_ int, r *rng.Rand) outcome {
			init := colorcfg.Theorem2(n, k, eps)
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			target := 2 * n / int64(k)
			doubleRound := -1
			res := core.Run(e, core.Options{
				MaxRounds: 500_000,
				Rand:      r,
				Observer: obs.ObserverFunc(func(round int, _, _ int64, c colorcfg.Config) {
					if doubleRound < 0 {
						if first, _ := c.TopTwo(); first >= target {
							doubleRound = round
						}
					}
				}),
			})
			if doubleRound < 0 {
				doubleRound = res.Rounds
			}
			return outcome{double: float64(doubleRound), total: float64(res.Rounds)}
		})
		doubles := make([]float64, len(results))
		totals := make([]float64, len(results))
		for i, o := range results {
			doubles[i] = o.double
			totals[i] = o.total
		}
		dm := stats.Mean(doubles)
		tm := stats.Mean(totals)
		norm := float64(k) * math.Log(float64(n))
		t.AddRow(fmt.Sprintf("%d", k), fmtF(dm), fmtF(tm), fmtF(dm/norm), fmtF(tm/norm))
	}
	return []*Table{t}
}
