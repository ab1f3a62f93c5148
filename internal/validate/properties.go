package validate

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

// Paper-level property checks: beyond matching the exact chain round for
// round, the engines must reproduce the paper's qualitative theorems at
// simulation scale. These are Monte-Carlo assertions with explicit
// statistical slack (Wilson intervals), deterministic for a fixed seed.

// ConsensusWHPSpec asserts Theorem 1's success event: from a
// sufficiently biased start (Corollary 1 shape), 3-majority reaches
// consensus on the initial plurality color with high probability.
type ConsensusWHPSpec struct {
	N          int64
	K          int
	Replicates int
	MaxRounds  int
	// MinRate is the required Wilson lower bound (z=3.09, α≈1e-3) on the
	// success probability.
	MinRate float64
}

// DefaultConsensusWHPSpec returns the standard cell: n=20000, k=8,
// Corollary-1 bias, 120 replicates, lower bound 0.9. (The replicate
// budget matters: even a perfect 80/80 record has Wilson lower bound
// 0.893 at z=3.09 — 120 replicates make a clean record certify 0.926.)
func DefaultConsensusWHPSpec() ConsensusWHPSpec {
	return ConsensusWHPSpec{N: 20_000, K: 8, Replicates: 120, MaxRounds: 20_000, MinRate: 0.9}
}

// CheckConsensusWHP runs the spec on the exact multinomial engine.
// Stat is the Wilson lower bound of the success rate; Critical is
// MinRate (pass when Stat >= Critical — note the inverted direction,
// encoded by swapping into margin form: Stat-Critical must be >= 0; the
// reported Stat is the margin so Pass == Stat >= 0 with Critical 0).
func CheckConsensusWHP(spec ConsensusWHPSpec, opts Options) CheckResult {
	opts = opts.withDefaults()
	s := core.Corollary1Bias(spec.N, spec.K, 1.0)
	agg := runToConsensus(threeMajority(colorcfg.Biased(spec.N, spec.K, s)),
		spec.Replicates, spec.MaxRounds, opts.Seed, opts.Pool)
	lo, _ := agg.Wilson(3.09)
	res := CheckResult{
		Name:       fmt.Sprintf("property/consensus-whp/n=%d,k=%d,s=%d", spec.N, spec.K, s),
		Kind:       "property",
		Stat:       lo - spec.MinRate,
		Critical:   0,
		Replicates: spec.Replicates,
		Seed:       opts.Seed,
	}
	res.Pass = res.Stat >= 0
	if !res.Pass {
		res.Detail = fmt.Sprintf("success rate %d/%d (Wilson lo %.3f) below required %.3f",
			agg.Wins, agg.N, lo, spec.MinRate)
	}
	return res
}

// BiasMonotonicitySpec asserts that the probability of winning on the
// plurality color is non-decreasing in the initial bias s — the
// qualitative content of Lemma 3 vs Lemma 10 (large bias amplifies,
// tiny bias is a near-lottery).
type BiasMonotonicitySpec struct {
	N          int64
	K          int
	BiasGrid   []int64
	Replicates int
	MaxRounds  int
}

// DefaultBiasMonotonicitySpec spans near-balanced to safely-biased.
func DefaultBiasMonotonicitySpec() BiasMonotonicitySpec {
	return BiasMonotonicitySpec{
		N: 4000, K: 3,
		BiasGrid:   []int64{0, 120, 400, 1200},
		Replicates: 150,
		MaxRounds:  50_000,
	}
}

// CheckBiasMonotonicity estimates the success probability at every grid
// point and fails if any consecutive pair demonstrates a statistically
// certain decrease: Wilson hi at the larger bias below Wilson lo at the
// smaller one. Stat is the minimum margin hi(s_{i+1}) − lo(s_i); the
// check passes when it is non-negative.
func CheckBiasMonotonicity(spec BiasMonotonicitySpec, opts Options) CheckResult {
	opts = opts.withDefaults()
	rates := make([]float64, len(spec.BiasGrid))
	los := make([]float64, len(spec.BiasGrid))
	his := make([]float64, len(spec.BiasGrid))
	for i, s := range spec.BiasGrid {
		agg := runToConsensus(threeMajority(colorcfg.Biased(spec.N, spec.K, s)),
			spec.Replicates, spec.MaxRounds, opts.Seed+uint64(i)*1000, opts.Pool)
		rates[i] = agg.SuccessRate()
		los[i], his[i] = agg.Wilson(3.09)
	}
	margin := math.Inf(1)
	worst := 0
	for i := 0; i+1 < len(spec.BiasGrid); i++ {
		if m := his[i+1] - los[i]; m < margin {
			margin, worst = m, i
		}
	}
	res := CheckResult{
		Name:       fmt.Sprintf("property/bias-monotonicity/n=%d,k=%d", spec.N, spec.K),
		Kind:       "property",
		Stat:       margin,
		Critical:   0,
		Replicates: spec.Replicates * len(spec.BiasGrid),
		Seed:       opts.Seed,
		Detail:     fmt.Sprintf("rates %v over bias grid %v", rates, spec.BiasGrid),
	}
	res.Pass = margin >= 0
	if !res.Pass {
		res.Detail = fmt.Sprintf("success rate drops from s=%d (lo %.3f) to s=%d (hi %.3f); rates %v",
			spec.BiasGrid[worst], los[worst], spec.BiasGrid[worst+1], his[worst+1], rates)
	}
	return res
}

// MDScalingSpec asserts the monochromatic-distance time bound of the
// undecided-state dynamics (SODA'15 follow-up, reproduced in E11):
// convergence time is Θ(md(c)·log n), so for fixed n the mean rounds to
// consensus must grow essentially linearly with md(c) ≈ k across
// near-balanced starts.
type MDScalingSpec struct {
	N          int64
	Ks         []int
	Replicates int
	MaxRounds  int
	// MinR2 is the required goodness of the linear fit of mean rounds
	// against md(c) (default 0.9), and the slope must be positive.
	MinR2 float64
}

// DefaultMDScalingSpec spans md ≈ 2 … 24.
func DefaultMDScalingSpec() MDScalingSpec {
	return MDScalingSpec{N: 50_000, Ks: []int{2, 6, 12, 24}, Replicates: 24, MaxRounds: 100_000, MinR2: 0.9}
}

// CheckMDScaling runs the undecided-state engine from slightly-biased
// k-color starts and fits mean consensus rounds against md(c). Stat is
// the fit R² (with a positive-slope requirement); Critical is MinR2.
func CheckMDScaling(spec MDScalingSpec, opts Options) CheckResult {
	opts = opts.withDefaults()
	if spec.MinR2 <= 0 {
		spec.MinR2 = 0.9
	}
	mds := make([]float64, len(spec.Ks))
	meanRounds := make([]float64, len(spec.Ks))
	for i, k := range spec.Ks {
		// Slight bias so the winner is typically the plurality color; md
		// stays ≈ k.
		init := colorcfg.Biased(spec.N, k, spec.N/int64(10*k))
		mds[i] = init.MonochromaticDistance()
		undecided := func() engine.Engine { return engine.NewUndecidedExact(init) }
		meanRounds[i] = runToConsensus(undecided, spec.Replicates, spec.MaxRounds,
			opts.Seed+uint64(i)*7777, opts.Pool).Rounds().Mean
	}
	fit := stats.LinearFit(mds, meanRounds)
	res := CheckResult{
		Name:       fmt.Sprintf("property/md-scaling/undecided/n=%d", spec.N),
		Kind:       "property",
		Stat:       fit.R2,
		Critical:   spec.MinR2,
		Replicates: spec.Replicates * len(spec.Ks),
		Seed:       opts.Seed,
		Detail:     fmt.Sprintf("md %v -> mean rounds %v (slope %.2f)", mds, meanRounds, fit.Slope),
	}
	res.Pass = fit.R2 >= spec.MinR2 && fit.Slope > 0
	if !res.Pass {
		res.Detail = fmt.Sprintf("rounds do not scale with md: R²=%.3f slope=%.2f (md %v, rounds %v)",
			fit.R2, fit.Slope, mds, meanRounds)
	}
	return res
}

// threeMajority builds 3-majority on the exact multinomial engine from
// init.
func threeMajority(init colorcfg.Config) func() engine.Engine {
	return func() engine.Engine { return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init) }
}

// runToConsensus runs replicates of the engine that mk builds, each until
// all of its agents hold one color or maxRounds pass, and folds their
// rounds and WonInitialPlurality into an mc.Agg.
func runToConsensus(mk func() engine.Engine, replicates, maxRounds int, seed uint64, pool *mc.Pool) *mc.Agg {
	recs, err := mc.Map(ctx, pool, replicates, seed, func(_ int, r *rng.Rand) mc.Record {
		e := mk()
		defer e.Close()
		res := core.Run(e, core.Options{
			MaxRounds: maxRounds,
			Stop:      core.WhenConsensusOf(e.N()),
			Rand:      r,
		})
		return mc.Record{Rounds: res.Rounds, Success: res.WonInitialPlurality}
	})
	if err != nil {
		panic("validate: replicate map failed: " + err.Error())
	}
	return mc.Aggregate(recs)
}
