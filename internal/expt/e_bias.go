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
	"plurality/internal/stats"
)

func init() {
	register("E6", "Lemma 10 — bias s = O(sqrt(kn)) is non-monotone", runE6)
	register("E9", "Lemmas 3-5 — the three phases of 3-majority", runE9)
	register("E12", "Lemmas 1-2 — drift validation against closed forms", runE12)
}

// runE6 estimates, for the Lemma 10 configuration (x+s, x, ..., x), the
// probability that the bias *decreases* within one round, sweeping s from
// well below sqrt(kn)/6 up past the Corollary 1 threshold. Lemma 10
// guarantees probability >= 1/(16e) ≈ 0.023 for s <= sqrt(kn)/6 (against a
// fixed rival color; against the worst of the k-1 rivals it is only
// larger); at the Corollary 1 bias the probability should collapse
// toward 0 — the paper's "why we need that bias" figure.
func runE6(p Profile, seed uint64) []*Table {
	n := p.N
	k := 16
	reps := p.Reps * 250 // one-round experiments are cheap: O(k) each
	lemmaBias := core.Lemma10MaxBias(n, k)
	cor1Bias := core.Corollary1Bias(n, k, 1.0)
	svals := []int64{lemmaBias / 4, lemmaBias / 2, lemmaBias, 2 * lemmaBias, cor1Bias, 2 * cor1Bias}
	t := &Table{
		ID:    "E6",
		Title: "P(bias decreases in one round) vs initial bias s",
		Note: fmt.Sprintf("n=%d, k=%d, Lemma-10 configuration, %d reps/point; sqrt(kn)/6=%d, Cor-1 bias=%d, Lemma-10 floor=%.3f",
			n, k, reps, lemmaBias, cor1Bias, core.Lemma10FailureLowerBound),
		Columns: []string{"s", "s/sqrt(kn)", "P(bias_drops)", "wilson95", "meets_lemma10_floor"},
	}
	sqrtKN := math.Sqrt(float64(k) * float64(n))
	for _, s := range svals {
		if s > n/int64(k) {
			continue // Lemma 10 requires s <= x
		}
		agg := runReps(p, reps, seed+uint64(s), func(_ int, r *rng.Rand) mc.Record {
			init := colorcfg.Lemma10(n, k, s)
			initBias := init.Bias()
			e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
			e.Step(r)
			// Success is the event this table estimates, not the paper's
			// success event: the bias drops in the one round.
			return mc.Record{Rounds: 1, Success: e.Config().Bias() < initBias}
		})
		rate := agg.SuccessRate()
		lo, hi := agg.Wilson(1.96)
		floorMet := "n/a"
		if s <= lemmaBias {
			floorMet = fmt.Sprintf("%v", rate >= core.Lemma10FailureLowerBound)
		}
		t.AddRow(fmtI(s), fmtF(float64(s)/sqrtKN), fmtF(rate),
			fmt.Sprintf("[%.3f,%.3f]", lo, hi), floorMet)
	}
	return []*Table{t}
}

// runE9 traces single trajectories and aggregates per-phase statistics:
//
//	phase 1 (c1 < 2n/3):  per-round bias growth factor vs Lemma 3's 1+c1/4n;
//	phase 2 (c1 >= 2n/3): per-round minority-mass decay factor vs Lemma 4's 8/9;
//	phase 3 (c1 >= n - polylog): rounds spent before extinction (Lemma 5: ~1).
func runE9(p Profile, seed uint64) []*Table {
	n := p.N * 5
	k := 8
	s := core.Corollary1Bias(n, k, 1.0)
	t := &Table{
		ID:    "E9",
		Title: "phase portrait of 3-majority (growth, decay, extinction)",
		Note: fmt.Sprintf("n=%d, k=%d, s=%d, %d reps; Lemma 3: growth ≥ 1+c1/4n while c1<2n/3; Lemma 4: minority decay ≤ 8/9 while c1≥2n/3; Lemma 5: last step ≈ 1 round",
			n, k, s, p.Reps),
		Columns: []string{"quantity", "measured_mean", "measured_min", "measured_max", "lemma_bound", "satisfied"},
	}
	type phaseStats struct {
		growthRatios []float64 // (bias growth per round)/(Lemma 3 factor)
		decayRatios  []float64 // minority decay per round (should be < 8/9 on average... <= with noise)
		lastRounds   []float64 // rounds from c1 >= n - log^2 n to consensus
	}
	all := ParallelReps(p, p.Reps, seed, func(_ int, r *rng.Rand) phaseStats {
		var ps phaseStats
		init := colorcfg.Biased(n, k, s)
		e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
		prev := e.Config()
		logSq := math.Pow(math.Log(float64(n)), 2)
		lastPhaseStart := -1
		for round := 1; round < 200_000; round++ {
			e.Step(r)
			cur := e.Config()
			pf, _ := prev.TopTwo()
			cf, _ := cur.TopTwo()
			switch {
			case float64(pf) >= float64(n)-logSq:
				if lastPhaseStart < 0 {
					lastPhaseStart = round
				}
			case pf >= 2*n/3:
				prevMass := float64(n - pf)
				curMass := float64(n - cf)
				if prevMass > 0 {
					ps.decayRatios = append(ps.decayRatios, curMass/prevMass)
				}
			default:
				pb, cb := float64(prev.Bias()), float64(cur.Bias())
				if pb > 0 {
					predicted := core.Lemma3GrowthFactor(prev)
					ps.growthRatios = append(ps.growthRatios, (cb/pb)/predicted)
				}
			}
			if cur.IsMonochromatic() {
				if lastPhaseStart >= 0 {
					ps.lastRounds = append(ps.lastRounds, float64(round-lastPhaseStart+1))
				}
				break
			}
			prev = cur
		}
		return ps
	})
	var growth, decay, last []float64
	for _, ps := range all {
		growth = append(growth, ps.growthRatios...)
		decay = append(decay, ps.decayRatios...)
		last = append(last, ps.lastRounds...)
	}
	if len(growth) > 0 {
		g := stats.Summarize(growth)
		t.AddRow("bias growth / (1+c1/4n)", fmtF(g.Mean), fmtF(g.Min), fmtF(g.Max),
			">= 1 (Lemma 3)", fmt.Sprintf("%v", g.Mean >= 1))
	}
	if len(decay) > 0 {
		d := stats.Summarize(decay)
		t.AddRow("minority decay factor", fmtF(d.Mean), fmtF(d.Min), fmtF(d.Max),
			"<= 8/9 (Lemma 4)", fmt.Sprintf("%v", d.Mean <= core.Lemma4DecayFactor+0.02))
	}
	if len(last) > 0 {
		l := stats.Summarize(last)
		t.AddRow("rounds in last phase", fmtF(l.Mean), fmtF(l.Min), fmtF(l.Max),
			"O(1) (Lemma 5)", fmt.Sprintf("%v", l.Mean < 10))
	}
	return []*Table{t}
}

// runE12 validates the closed forms the exact engine is built on: for a zoo
// of configuration shapes it compares (a) the empirical one-round mean of
// every color count against Lemma 1's µ_j, reporting the worst z-score, and
// (b) the empirical plurality-vs-runner-up drift against Lemma 2's lower
// bound. Both the multinomial and the agent-sampled engines are checked —
// this is the equivalence ablation of DESIGN.md §5.
func runE12(p Profile, seed uint64) []*Table {
	reps := p.Reps * 50
	shapes := []struct {
		name string
		cfg  colorcfg.Config
	}{
		{"biased k=4", colorcfg.Biased(10000, 4, 800)},
		{"balanced k=16", colorcfg.Balanced(10000, 16)},
		{"two-block k=8", colorcfg.TwoBlock(10000, 8, 300, 0.9)},
		{"zipf k=32", colorcfg.Zipf(10000, 32, 1.2, rng.New(seed^7))},
		{"lemma10 k=16", colorcfg.Lemma10(10000, 16, core.Lemma10MaxBias(10000, 16))},
	}
	t := &Table{
		ID:    "E12",
		Title: "one-round drift: empirical vs Lemma 1 / Lemma 2",
		Note: fmt.Sprintf("n=10000, %d reps per shape; worst |z| across colors should be ≾ 4; Lemma-2 column: empirical E[C1−C2] ≥ bound",
			reps),
		Columns: []string{"shape", "engine", "worst|z|_lemma1", "drift_emp", "drift_lemma2_bound", "ok"},
	}
	for _, shape := range shapes {
		mu := core.ExpectedNext(shape.cfg)
		n := shape.cfg.N()
		k := shape.cfg.K()
		bound := core.ExpectedBiasLowerBound(shape.cfg)
		for _, engName := range []string{"multinomial", "sampled"} {
			sums := ParallelReps(p, reps, seed+hashName(shape.name+engName), func(rep int, r *rng.Rand) []float64 {
				var e engine.Engine
				if engName == "multinomial" {
					e = engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, shape.cfg)
				} else {
					e = engine.NewCliqueSampled(dynamics.ThreeMajority{}, shape.cfg, 1, seed^uint64(rep)^hashName(engName))
				}
				defer e.Close()
				e.Step(r)
				out := make([]float64, k)
				for j, v := range e.Config() {
					out[j] = float64(v)
				}
				return out
			})
			mean := make([]float64, k)
			for _, row := range sums {
				for j, v := range row {
					mean[j] += v / float64(len(sums))
				}
			}
			worstZ := 0.0
			for j := range mean {
				// Var of one count <= n/4; se of the mean across reps.
				se := math.Sqrt(float64(n)/4) / math.Sqrt(float64(len(sums)))
				z := math.Abs(mean[j]-mu[j]) / se
				if z > worstZ {
					worstZ = z
				}
			}
			// Empirical drift between the top two expected colors.
			best, second := -1, -1
			for j := range mu {
				if best < 0 || mu[j] > mu[best] {
					best, second = j, best
				} else if second < 0 || mu[j] > mu[second] {
					second = j
				}
			}
			drift := mean[best] - mean[second]
			seDrift := math.Sqrt(float64(n)) / math.Sqrt(float64(len(sums))) * 2
			ok := worstZ < 5 && drift > bound-4*seDrift
			t.AddRow(shape.name, engName, fmtF(worstZ), fmtF(drift), fmtF(bound),
				fmt.Sprintf("%v", ok))
		}
	}
	return []*Table{t}
}
