package core

import (
	"math"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
)

func TestRunConvergesToPlurality(t *testing.T) {
	init := colorcfg.Biased(50000, 4, 6000)
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	res := Run(e, Options{MaxRounds: 1000, Rand: rng.New(1)})
	if !res.Stopped {
		t.Fatalf("did not stop: %+v", res)
	}
	if !res.WonInitialPlurality || res.Winner != 0 {
		t.Fatalf("wrong winner: %+v", res)
	}
	if res.Rounds <= 0 || res.Rounds > 500 {
		t.Fatalf("implausible round count %d", res.Rounds)
	}
	if err := res.Final.Validate(50000); err != nil {
		t.Fatal(err)
	}
}

func TestRunMaxRounds(t *testing.T) {
	init := colorcfg.Balanced(1000, 100) // will not converge in 3 rounds
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	res := Run(e, Options{MaxRounds: 3, Rand: rng.New(2)})
	if res.Stopped {
		t.Fatal("balanced k=100 should not converge in 3 rounds")
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	if res.WonInitialPlurality {
		t.Fatal("non-stopped run cannot have won")
	}
}

func TestRunAlreadyStopped(t *testing.T) {
	init := colorcfg.FromCounts(0, 100)
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	res := Run(e, Options{MaxRounds: 100, Rand: rng.New(3)})
	if !res.Stopped || res.Rounds != 0 {
		t.Fatalf("monochromatic start must stop at round 0: %+v", res)
	}
	if res.Winner != 1 || !res.WonInitialPlurality {
		t.Fatalf("winner: %+v", res)
	}
}

func TestRunOnRoundHook(t *testing.T) {
	init := colorcfg.Biased(5000, 3, 1500)
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	calls := 0
	res := Run(e, Options{
		MaxRounds: 500,
		Rand:      rng.New(5),
		OnRound: func(round int, c colorcfg.Config) {
			calls++
			if round != calls {
				t.Fatalf("round %d on call %d", round, calls)
			}
		},
	})
	if calls != res.Rounds {
		t.Fatalf("hook called %d times for %d rounds", calls, res.Rounds)
	}
}

func TestRunWithAdversaryStopsAtMPlurality(t *testing.T) {
	n := int64(50000)
	init := colorcfg.Biased(n, 4, 10000)
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	res := Run(e, Options{
		MaxRounds: 5000,
		Rand:      rng.New(6),
		Adversary: adversary.Strongest{F: 40},
		Stop:      WhenMPlurality(n, 400),
	})
	if !res.Stopped {
		t.Fatalf("did not reach M-plurality: %+v", res.Final)
	}
	first, _ := res.Final.TopTwo()
	if n-first > 400 {
		t.Fatalf("minority mass %d > 400", n-first)
	}
}

func TestStopCombinators(t *testing.T) {
	c := colorcfg.FromCounts(90, 10, 0)
	if WhenMonochromatic()(c, 0) {
		t.Error("not monochromatic")
	}
	if !WhenMonochromatic()(colorcfg.FromCounts(0, 5), 0) {
		t.Error("monochromatic not detected")
	}
	if !WhenConsensusOf(100)(colorcfg.FromCounts(100, 0), 0) {
		t.Error("consensus not detected")
	}
	if WhenConsensusOf(100)(colorcfg.FromCounts(99, 0), 0) {
		t.Error("99/100 is not consensus (undecided engines)")
	}
	if !WhenMPlurality(100, 10)(c, 0) {
		t.Error("M-plurality not detected")
	}
	if WhenMPlurality(100, 5)(c, 0) {
		t.Error("M-plurality false positive")
	}
	if !WhenColorDominates(0, 100)(colorcfg.FromCounts(100, 0), 0) {
		t.Error("dominance not detected")
	}
	if !WhenColorDead(1)(colorcfg.FromCounts(100, 0), 0) {
		t.Error("death not detected")
	}
	any := Any(WhenColorDead(0), WhenColorDead(1))
	if !any(colorcfg.FromCounts(100, 0), 0) || any(colorcfg.FromCounts(50, 50), 0) {
		t.Error("Any combinator broken")
	}
}

func TestRunPanicsWithoutRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(100, 2, 10))
	Run(e, Options{})
}

// ----- theory helpers -----

func TestExpectedNextMatchesLemma1(t *testing.T) {
	c := colorcfg.FromCounts(50, 30, 20)
	mu := ExpectedNext(c)
	// Hand-computed: n=100, Σc² = 2500+900+400 = 3800.
	// µ_0 = 50(1 + (5000-3800)/10000) = 50·1.12 = 56.
	if math.Abs(mu[0]-56) > 1e-9 {
		t.Errorf("µ_0 = %v, want 56", mu[0])
	}
	// µ_1 = 30(1 + (3000-3800)/10000) = 30·0.92 = 27.6.
	if math.Abs(mu[1]-27.6) > 1e-9 {
		t.Errorf("µ_1 = %v, want 27.6", mu[1])
	}
	// µ_2 = 20(1 + (2000-3800)/10000) = 20·0.82 = 16.4.
	if math.Abs(mu[2]-16.4) > 1e-9 {
		t.Errorf("µ_2 = %v, want 16.4", mu[2])
	}
	// Expectations preserve n.
	sum := 0.0
	for _, m := range mu {
		sum += m
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("Σµ = %v", sum)
	}
}

func TestExpectedBiasLowerBoundHolds(t *testing.T) {
	// Lemma 2: µ_1 - µ_2 >= s(1 + c1/n(1-c1/n)). Check against Lemma 1's
	// exact expectations on assorted configurations.
	configs := []colorcfg.Config{
		colorcfg.FromCounts(50, 30, 20),
		colorcfg.Biased(10000, 8, 500),
		colorcfg.FromCounts(400, 350, 150, 100),
		colorcfg.TwoBlock(10000, 6, 300, 0.9),
	}
	for _, c := range configs {
		mu := ExpectedNext(c)
		sorted := append([]float64(nil), mu...)
		// plurality is color 0 in all these configs; runner-up expectation:
		best, second := -1.0, -1.0
		for _, m := range sorted {
			if m > best {
				best, second = m, best
			} else if m > second {
				second = m
			}
		}
		bound := ExpectedBiasLowerBound(c)
		if best-second < bound-1e-9 {
			t.Errorf("config %v: drift %v < Lemma 2 bound %v", c, best-second, bound)
		}
	}
}

func TestLambda(t *testing.T) {
	// Small k: λ = 2k.
	if l := Lambda(1000000, 3); l != 6 {
		t.Errorf("λ = %v, want 6", l)
	}
	// Huge k: λ = (n/ln n)^(1/3).
	n := int64(1000000)
	want := math.Cbrt(float64(n) / math.Log(float64(n)))
	if l := Lambda(n, 100000); math.Abs(l-want) > 1e-9 {
		t.Errorf("λ = %v, want %v", l, want)
	}
}

func TestBiasHelpers(t *testing.T) {
	n := int64(1 << 20)
	if TheoremBias(n, 4) <= float64(PracticalBias(n, 4, 1.0)) {
		// 72√2 ≈ 101.8 > 1.
		tb := TheoremBias(n, 4)
		pb := PracticalBias(n, 4, 1)
		t.Errorf("TheoremBias %v should exceed PracticalBias %v", tb, float64(pb))
	}
	// PracticalBias caps at n.
	if b := PracticalBias(100, 1000, 100); b > 100 {
		t.Errorf("bias %d exceeds n", b)
	}
	if Corollary1Bias(n, 4, 1) != PracticalBias(n, Lambda(n, 4), 1) {
		t.Error("Corollary1Bias inconsistent with Lambda")
	}
}

func TestRoundPredictors(t *testing.T) {
	n := int64(100000)
	if UpperBoundRounds(n, 8, 1) <= 0 || LowerBoundRounds(n, 8, 1) <= 0 {
		t.Error("non-positive round predictions")
	}
	if HPluralityLowerRounds(64, 4, 1) != 4 {
		t.Errorf("k/h² = %v", HPluralityLowerRounds(64, 4, 1))
	}
	if Theorem2MaxK(n) <= 1 {
		t.Error("Theorem2MaxK too small")
	}
	if Lemma10MaxBias(10000, 16) != int64(math.Sqrt(160000)/6) {
		t.Errorf("Lemma10MaxBias = %d", Lemma10MaxBias(10000, 16))
	}
	if Lemma10FailureLowerBound <= 0 || Lemma10FailureLowerBound >= 1 {
		t.Error("bad Lemma 10 constant")
	}
	if SelfStabilizationResidue(1000, 8) != 125 {
		t.Errorf("residue = %v", SelfStabilizationResidue(1000, 8))
	}
}

func TestLemma3And4Factors(t *testing.T) {
	c := colorcfg.FromCounts(500, 300, 200)
	if g := Lemma3GrowthFactor(c); math.Abs(g-(1+0.5/4)) > 1e-12 {
		t.Errorf("growth factor %v", g)
	}
	if Lemma4DecayFactor != 8.0/9.0 {
		t.Error("decay factor changed")
	}
}

func TestTheoryPanicsOnEmpty(t *testing.T) {
	for name, f := range map[string]func(){
		"ExpectedNext": func() { ExpectedNext(colorcfg.New(2)) },
		"BiasBound":    func() { ExpectedBiasLowerBound(colorcfg.New(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
