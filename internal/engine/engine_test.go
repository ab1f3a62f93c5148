package engine

import (
	"math"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// runToMono advances an engine until monochromatic or maxRounds.
func runToMono(t *testing.T, e Engine, r *rng.Rand, maxRounds int) (colorcfg.Config, bool) {
	t.Helper()
	for i := 0; i < maxRounds; i++ {
		c := e.Config()
		if c.IsMonochromatic() {
			return c, true
		}
		e.Step(r)
	}
	return e.Config(), e.Config().IsMonochromatic()
}

func TestCliqueMultinomialConservesN(t *testing.T) {
	r := rng.New(1)
	e := NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(10000, 5, 500))
	for i := 0; i < 50; i++ {
		e.Step(r)
		if err := e.Config().Validate(10000); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if e.Round() != 50 {
		t.Fatalf("Round() = %d", e.Round())
	}
}

func TestCliqueMultinomialConvergesWithBias(t *testing.T) {
	// Corollary 3 regime: constant λ, s >> sqrt(n log n) -> converges to
	// the plurality color in O(log n) rounds.
	r := rng.New(2)
	init := colorcfg.Biased(100000, 4, 8000)
	e := NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	final, mono := runToMono(t, e, r, 200)
	if !mono {
		t.Fatalf("did not converge in 200 rounds: %v", final)
	}
	if final.Plurality() != 0 {
		t.Fatalf("converged to color %d, want 0", final.Plurality())
	}
	if e.Round() > 100 {
		t.Errorf("took %d rounds, expected O(log n) ~ tens", e.Round())
	}
}

func TestCliqueMultinomialRejectsNoProbModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rule without ProbModel")
		}
	}()
	NewCliqueMultinomial(dynamics.NewHPlurality(5), colorcfg.Biased(100, 2, 10))
}

func TestCliqueMultinomialRejectsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty config")
		}
	}()
	NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.New(3))
}

func TestCliqueSampledConservesN(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := rng.New(3)
		e := NewCliqueSampled(dynamics.ThreeMajority{}, colorcfg.Biased(5000, 4, 300), workers, 99)
		for i := 0; i < 30; i++ {
			e.Step(r)
			if err := e.Config().Validate(5000); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, i, err)
			}
		}
	}
}

func TestCliqueSampledDeterministicGivenSeed(t *testing.T) {
	run := func() colorcfg.Config {
		r := rng.New(7)
		e := NewCliqueSampled(dynamics.ThreeMajority{}, colorcfg.Biased(2000, 3, 100), 4, 123)
		for i := 0; i < 10; i++ {
			e.Step(r)
		}
		return e.Config()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatalf("same seed, different outcomes: %v vs %v", a, b)
	}
}

func TestCliqueSampledConvergesWithBias(t *testing.T) {
	r := rng.New(4)
	e := NewCliqueSampled(dynamics.ThreeMajority{}, colorcfg.Biased(20000, 4, 3000), 4, 5)
	final, mono := runToMono(t, e, r, 300)
	if !mono || final.Plurality() != 0 {
		t.Fatalf("sampled engine failed to converge to plurality: %v (mono=%v)", final, mono)
	}
}

// TestEnginesAgreeOnDrift is the core cross-validation: after one round
// from the same configuration, the empirical mean of each engine's counts
// must match Lemma 1's µ within Monte-Carlo error.
func TestEnginesAgreeOnDrift(t *testing.T) {
	init := colorcfg.FromCounts(500, 300, 200)
	n := init.N()
	rule := dynamics.ThreeMajority{}

	mu := make([]float64, 3) // Lemma 1 expectation
	probs := make([]float64, 3)
	rule.AdoptionProbs(init, probs)
	for j := range mu {
		mu[j] = probs[j] * float64(n)
	}

	const reps = 3000
	check := func(name string, mean []float64) {
		for j := range mu {
			// sd of one count <= sqrt(n)/2; se of mean over reps.
			se := math.Sqrt(float64(n)) / math.Sqrt(reps)
			if math.Abs(mean[j]-mu[j]) > 6*se {
				t.Errorf("%s color %d: mean %v, lemma1 %v (se %v)", name, j, mean[j], mu[j], se)
			}
		}
	}

	// Multinomial engine.
	{
		r := rng.New(10)
		mean := make([]float64, 3)
		for i := 0; i < reps; i++ {
			e := NewCliqueMultinomial(rule, init)
			e.Step(r)
			for j, v := range e.Config() {
				mean[j] += float64(v) / reps
			}
		}
		check("multinomial", mean)
	}
	// Sampled engine.
	{
		mean := make([]float64, 3)
		for i := 0; i < reps; i++ {
			e := NewCliqueSampled(rule, init, 1, uint64(1000+i))
			e.Step(nil)
			for j, v := range e.Config() {
				mean[j] += float64(v) / reps
			}
		}
		check("sampled", mean)
	}
}

func TestRepaintCounts(t *testing.T) {
	e := NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.FromCounts(10, 5, 0))
	if moved := e.Repaint(0, 2, 3); moved != 3 {
		t.Fatalf("moved %d, want 3", moved)
	}
	c := e.Config()
	if c[0] != 7 || c[2] != 3 {
		t.Fatalf("after repaint: %v", c)
	}
	// More than available.
	if moved := e.Repaint(1, 0, 100); moved != 5 {
		t.Fatalf("moved %d, want 5", moved)
	}
	// No-ops.
	if e.Repaint(0, 0, 10) != 0 || e.Repaint(1, 2, 0) != 0 {
		t.Fatal("no-op repaint moved agents")
	}
	if err := e.Config().Validate(15); err != nil {
		t.Fatal(err)
	}
}

// allEngines builds one engine of each of the seven types from init.
func allEngines(init colorcfg.Config) []Engine {
	return []Engine{
		NewCliqueMultinomial(dynamics.ThreeMajority{}, init),
		NewCliqueMarkov(dynamics.ThreeMajorityKeepOwn{}, init),
		NewCliqueSampled(dynamics.ThreeMajority{}, init, 2, 1),
		NewGraphEngine(dynamics.ThreeMajority{}, topo.NewComplete(init.N()), init, 2, 1, nil),
		NewPopulation(dynamics.ThreeMajority{}, init),
		NewUndecidedExact(init),
		NewUndecidedPopulation(init),
	}
}

// TestRepaintPanicsOutOfRange pins both Repaint bodies, the count-level
// one and the agent-array one, to reject a color outside [0, k) on
// either side, the Undecided sentinel included, on every engine.
func TestRepaintPanicsOutOfRange(t *testing.T) {
	for _, e := range allEngines(colorcfg.FromCounts(5, 5)) {
		for _, p := range [][2]Color{{0, 7}, {7, 0}, {0, Undecided}, {Undecided, 0}} {
			func() {
				defer func() {
					if r := recover(); r != "engine: Repaint color out of range" {
						t.Errorf("%s: Repaint(%d, %d, 1) panicked with %v, want the range check", e.Name(), p[0], p[1], r)
					}
				}()
				e.Repaint(p[0], p[1], 1)
			}()
		}
		if c := e.Config(); c[0] != 5 || c[1] != 5 {
			t.Errorf("%s: rejected repaints changed the configuration to %v", e.Name(), c)
		}
		e.Close()
	}
}

func TestMonochromaticIsAbsorbing(t *testing.T) {
	// Definition 1 implies monochromatic configurations are absorbing for
	// every engine realizing a dynamics.
	r := rng.New(11)
	mono := colorcfg.FromCounts(0, 1000, 0)
	engines := []Engine{
		NewCliqueMultinomial(dynamics.ThreeMajority{}, mono),
		NewCliqueSampled(dynamics.NewHPlurality(5), mono, 2, 1),
		NewPopulation(dynamics.ThreeMajority{}, mono),
	}
	for _, e := range engines {
		for i := 0; i < 5; i++ {
			e.Step(r)
		}
		c := e.Config()
		if !c.IsMonochromatic() || c[1] != 1000 {
			t.Errorf("%s: monochromatic state not absorbing: %v", e.Name(), c)
		}
	}
}

func TestPopulationConservesAndConverges(t *testing.T) {
	r := rng.New(12)
	e := NewPopulation(dynamics.ThreeMajority{}, colorcfg.Biased(2000, 3, 600))
	for i := 0; i < 20; i++ {
		e.Step(r)
		if err := e.Config().Validate(2000); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	final, mono := runToMono(t, e, r, 300)
	if !mono || final.Plurality() != 0 {
		t.Fatalf("population engine: mono=%v cfg=%v", mono, final)
	}
}

func TestPopulationRepaint(t *testing.T) {
	e := NewPopulation(dynamics.Polling{}, colorcfg.FromCounts(8, 2))
	if moved := e.Repaint(0, 1, 3); moved != 3 {
		t.Fatalf("moved %d", moved)
	}
	if c := e.Config(); c[0] != 5 || c[1] != 5 {
		t.Fatalf("after repaint %v", c)
	}
}

func TestEngineNames(t *testing.T) {
	for _, e := range allEngines(colorcfg.Biased(100, 2, 10)) {
		if e.Name() == "" {
			t.Errorf("%T has empty name", e)
		}
		if e.N() != 100 || e.K() != 2 {
			t.Errorf("%s: N=%d K=%d", e.Name(), e.N(), e.K())
		}
		e.Close()
	}
}
