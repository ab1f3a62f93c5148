// Package integration holds cross-module tests: process-level equivalence
// of the engines that realize the same mathematical process, end-to-end
// theorem smoke checks, and adversary × engine interoperation.
package integration

import (
	"math"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/stats"
	"plurality/internal/topo"
)

// meanRounds runs reps processes built by mk and returns summary stats of
// the rounds-to-consensus and the win count.
func meanRounds(t *testing.T, reps int, mk func(rep int) engine.Engine, seed uint64) (stats.Summary, int) {
	t.Helper()
	rounds := make([]float64, reps)
	wins := 0
	base := rng.New(seed)
	for rep := 0; rep < reps; rep++ {
		e := mk(rep)
		res := core.Run(e, core.Options{MaxRounds: 100_000, Rand: base.NewStream()})
		e.Close()
		if !res.Stopped {
			t.Fatalf("rep %d did not converge", rep)
		}
		rounds[rep] = float64(res.Rounds)
		if res.WonInitialPlurality {
			wins++
		}
	}
	return stats.Summarize(rounds), wins
}

// TestEnginesProcessLevelEquivalence verifies that the three realizations
// of the 3-majority process on the clique (exact multinomial,
// configuration sampling, literal agent array) produce statistically
// indistinguishable rounds-to-consensus distributions.
func TestEnginesProcessLevelEquivalence(t *testing.T) {
	n := int64(30000)
	k := 5
	s := core.Corollary1Bias(n, k, 1.0)
	init := colorcfg.Biased(n, k, s)
	const reps = 60

	mkMulti := func(rep int) engine.Engine {
		return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	}
	mkSampled := func(rep int) engine.Engine {
		return engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, 2, uint64(rep)*7+1)
	}
	mkGraph := func(rep int) engine.Engine {
		return engine.NewGraphEngine(dynamics.ThreeMajority{}, topo.NewComplete(n), init, 2, uint64(rep)*13+5, nil)
	}
	mkMarkov := func(rep int) engine.Engine {
		return engine.NewCliqueMarkov(dynamics.ThreeMajorityKeepOwn{}, init)
	}

	sums := map[string]stats.Summary{}
	for name, mk := range map[string]func(int) engine.Engine{
		"multinomial": mkMulti, "sampled": mkSampled, "graph": mkGraph, "markov": mkMarkov,
	} {
		sum, wins := meanRounds(t, reps, mk, 1000)
		if wins != reps {
			t.Errorf("%s: won only %d/%d", name, wins, reps)
		}
		sums[name] = sum
	}
	ref := sums["multinomial"]
	for name, sum := range sums {
		// Means must agree within a few pooled standard errors.
		se := math.Sqrt(sum.Std*sum.Std/float64(sum.N) + ref.Std*ref.Std/float64(ref.N))
		if math.Abs(sum.Mean-ref.Mean) > 5*se+0.5 {
			t.Errorf("%s mean rounds %v differs from multinomial %v (se %v)",
				name, sum.Mean, ref.Mean, se)
		}
	}
}

// TestTieBreakProcessEquivalence checks the paper's remark that rainbow
// tie-breaking (first sample vs uniform) does not change the process.
func TestTieBreakProcessEquivalence(t *testing.T) {
	n := int64(20000)
	init := colorcfg.Biased(n, 6, core.Corollary1Bias(n, 6, 1.0))
	const reps = 50
	a, winsA := meanRounds(t, reps, func(rep int) engine.Engine {
		return engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, 1, uint64(rep)+11)
	}, 2000)
	b, winsB := meanRounds(t, reps, func(rep int) engine.Engine {
		return engine.NewCliqueSampled(dynamics.ThreeMajority{UniformTie: true}, init, 1, uint64(rep)+77)
	}, 3000)
	if winsA != reps || winsB != reps {
		t.Fatalf("wins %d/%d vs %d/%d", winsA, reps, winsB, reps)
	}
	se := math.Sqrt(a.Std*a.Std/float64(reps) + b.Std*b.Std/float64(reps))
	if math.Abs(a.Mean-b.Mean) > 5*se+0.5 {
		t.Errorf("tie-break variants differ: %v vs %v (se %v)", a.Mean, b.Mean, se)
	}
}

// TestTheorem1RoundsScaleWithLambda is an end-to-end check of the upper
// bound shape: quadrupling λ should roughly quadruple rounds (up to the
// log factor), never explode.
func TestTheorem1RoundsScaleWithLambda(t *testing.T) {
	n := int64(100000)
	mk := func(k int) float64 {
		s := core.Corollary1Bias(n, k, 1.0)
		sum, wins := meanRounds(t, 20, func(rep int) engine.Engine {
			return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(n, k, s))
		}, uint64(4000+k))
		if wins != 20 {
			t.Fatalf("k=%d: wins %d/20", k, wins)
		}
		return sum.Mean
	}
	r2 := mk(2) // λ = 4
	r8 := mk(8) // λ = 16
	ratio := r8 / r2
	if ratio < 1.1 || ratio > 4.5 {
		t.Errorf("rounds ratio λ16/λ4 = %v, want within (1.1, 4.5): %v vs %v", ratio, r8, r2)
	}
}

// TestAdversaryAcrossEngines runs the strongest adversary against every
// engine type and checks M-plurality is reached with a small budget.
func TestAdversaryAcrossEngines(t *testing.T) {
	n := int64(30000)
	k := 4
	s := core.Corollary1Bias(n, k, 1.0)
	init := colorcfg.Biased(n, k, s)
	adv := adversary.Strongest{F: 20}
	m := int64(core.SelfStabilizationResidue(s, core.Lambda(n, k))) + 200

	engines := map[string]engine.Engine{
		"multinomial": engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init),
		"sampled":     engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, 2, 5),
		"graph":       engine.NewGraphEngine(dynamics.ThreeMajority{}, topo.NewComplete(n), init, 2, 6, nil),
		"markov":      engine.NewCliqueMarkov(dynamics.ThreeMajorityKeepOwn{}, init),
	}
	for name, e := range engines {
		res := core.Run(e, core.Options{
			MaxRounds: 5000,
			Rand:      rng.New(77),
			Adversary: adv,
			Stop:      core.WhenMPlurality(n, m),
		})
		if !res.Stopped {
			t.Errorf("%s: did not reach M-plurality under adversary", name)
		}
		if res.Final.Plurality() != 0 {
			t.Errorf("%s: adversary flipped the plurality", name)
		}
	}
}

// TestUndecidedEnginesAgree compares the exact and population undecided
// engines on win rate and round count from the same biased input (the
// population engine counts n micro-steps per round, so the two are
// comparable only coarsely — same winner, same order of magnitude).
func TestUndecidedEnginesAgree(t *testing.T) {
	init := colorcfg.FromCounts(3000, 1500, 500)
	n := init.N()
	const reps = 20
	base := rng.New(10)
	runOne := func(exact bool, r *rng.Rand) (int, bool) {
		var e engine.Engine
		if exact {
			e = engine.NewUndecidedExact(init)
		} else {
			e = engine.NewUndecidedPopulation(init)
		}
		res := core.Run(e, core.Options{
			MaxRounds: 50000,
			Rand:      r,
			Stop:      core.WhenConsensusOf(n),
		})
		return res.Rounds, res.Stopped && res.Winner == 0
	}
	exactWins, popWins := 0, 0
	var exactRounds, popRounds float64
	for rep := 0; rep < reps; rep++ {
		er, ew := runOne(true, base.NewStream())
		pr, pw := runOne(false, base.NewStream())
		if ew {
			exactWins++
		}
		if pw {
			popWins++
		}
		exactRounds += float64(er) / reps
		popRounds += float64(pr) / reps
	}
	if exactWins < reps-2 || popWins < reps-2 {
		t.Errorf("win rates diverge: exact %d/%d, population %d/%d", exactWins, reps, popWins, reps)
	}
	if popRounds > 10*exactRounds+20 || exactRounds > 10*popRounds+20 {
		t.Errorf("round scales diverge: exact %v vs population %v", exactRounds, popRounds)
	}
}

// TestFullPipelineTrajectoryMonotoneAfterThreshold verifies the upper
// bound's key structural fact end-to-end: with the Corollary-1 bias the
// bias trajectory is (essentially) monotone increasing — the property
// Lemma 10 shows breaks below sqrt(kn)/6.
func TestFullPipelineTrajectoryMonotoneAfterThreshold(t *testing.T) {
	n := int64(200000)
	k := 8
	init := colorcfg.Biased(n, k, core.Corollary1Bias(n, k, 1.0))
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	trajectory := []int64{init.Bias()}
	res := core.Run(e, core.Options{MaxRounds: 1000, Rand: rng.New(3),
		Observer: obs.ObserverFunc(func(_ int, _, _ int64, c colorcfg.Config) { trajectory = append(trajectory, c.Bias()) })})
	if !res.WonInitialPlurality {
		t.Fatal("did not converge")
	}
	drops := 0
	for i := 1; i < len(trajectory); i++ {
		if trajectory[i] < trajectory[i-1] {
			drops++
		}
	}
	if drops > len(trajectory)/10 {
		t.Errorf("bias dropped in %d/%d rounds despite Cor-1 bias", drops, len(trajectory))
	}
}
