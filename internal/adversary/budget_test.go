package adversary

import (
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
)

// budgetTracker wraps an engine and records how many agents each Corrupt
// call actually moved, so tests can pin the per-round budget contract:
// an adversary may move at most Budget() agents, and the greedy
// strategies move exactly Budget() whenever enough mass is available.
type budgetTracker struct {
	engine.Engine
	moved int64
}

func (b *budgetTracker) Repaint(from, to colorcfg.Color, m int64) int64 {
	n := b.Engine.Repaint(from, to, m)
	b.moved += n
	return n
}

// TestCorruptionNeverExceedsBudget: every strategy, across many rounds
// and configurations, must stay within its declared per-round budget.
func TestCorruptionNeverExceedsBudget(t *testing.T) {
	r := rng.New(11)
	for _, adv := range []Adversary{
		Strongest{F: 17}, Spread{F: 17}, Random{F: 17}, Boost{F: 17},
	} {
		e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Biased(1000, 5, 100))
		tr := &budgetTracker{Engine: e}
		for round := 0; round < 50; round++ {
			tr.moved = 0
			e.Step(r)
			adv.Corrupt(tr, tr.Config(), r)
			if tr.moved > adv.Budget() {
				t.Fatalf("%s: round %d moved %d > budget %d", adv.Name(), round, tr.moved, adv.Budget())
			}
			if err := e.Config().Validate(1000); err != nil {
				t.Fatalf("%s: round %d: %v", adv.Name(), round, err)
			}
		}
		e.Close()
	}
}

// TestGreedyStrategiesSpendExactBudget: with ample mass on the source
// colors, Strongest, Spread and Boost must spend exactly F — an
// adversary that silently under-spends would make the Corollary 4
// experiments report tolerance the paper does not claim.
func TestGreedyStrategiesSpendExactBudget(t *testing.T) {
	for _, adv := range []Adversary{Strongest{F: 23}, Spread{F: 23}, Boost{F: 23}} {
		e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.FromCounts(400, 300, 200, 100))
		tr := &budgetTracker{Engine: e}
		adv.Corrupt(tr, tr.Config(), rng.New(1))
		if tr.moved != 23 {
			t.Errorf("%s moved %d agents, want exactly 23", adv.Name(), tr.moved)
		}
		e.Close()
	}
}

// TestBudgetExactlyDrainsSource: when F exactly equals the plurality
// mass, Strongest must move all of it and nothing else — the capped
// boundary of the Repaint contract.
func TestBudgetExactlyDrainsSource(t *testing.T) {
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.FromCounts(50, 30, 20))
	defer e.Close()
	tr := &budgetTracker{Engine: e}
	Strongest{F: 50}.Corrupt(tr, tr.Config(), rng.New(1))
	if tr.moved != 50 {
		t.Fatalf("moved %d, want the full 50", tr.moved)
	}
	c := e.Config()
	if c[0] != 0 || c[1] != 80 || c[2] != 20 {
		t.Fatalf("post-corruption config %v", c)
	}
}

// TestToleratedBudgetStillConverges is the Corollary 4 boundary from
// below: with F at the tolerated order (well under s/λ), the process
// must still reach M-plurality consensus on the initial plurality color.
// The complementary boundary from above is TestOverwhelmingBudgetStalls.
func TestToleratedBudgetStillConverges(t *testing.T) {
	r := rng.New(21)
	const n = int64(50_000)
	init := colorcfg.Biased(n, 4, 8000)
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	defer e.Close()
	adv := Strongest{F: 200} // s/λ ≈ 8000/8 = 1000; F well below
	for round := 0; round < 3000; round++ {
		e.Step(r)
		adv.Corrupt(e, e.Config(), r)
		first, _ := e.Config().TopTwo()
		if n-first <= 10*adv.F {
			if e.Config().Plurality() != 0 {
				t.Fatalf("adversary flipped the winner: %v", e.Config())
			}
			return
		}
	}
	t.Fatalf("tolerated budget prevented consensus: %v", e.Config())
}

// TestOverwhelmingBudgetStalls is the boundary from above: an adversary
// whose budget dominates both the drift and the standard deviation of a
// near-balanced configuration keeps the process away from consensus
// indefinitely — the regime Corollary 4 explicitly does not cover
// (F ≫ s/λ). If this stalls stops stalling, the two-phase round order
// (step, then corrupt) has changed.
func TestOverwhelmingBudgetStalls(t *testing.T) {
	r := rng.New(22)
	const n = int64(10_000)
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.Balanced(n, 2))
	defer e.Close()
	adv := Strongest{F: n / 10} // 1000 ≫ sqrt(n) fluctuations near balance
	for round := 0; round < 500; round++ {
		e.Step(r)
		adv.Corrupt(e, e.Config(), r)
		if e.Config().IsMonochromatic() {
			t.Fatalf("round %d: consensus reached despite overwhelming adversary: %v", round, e.Config())
		}
	}
	// The adversary caps the bias: it must still be far from consensus.
	if bias := e.Config().Bias(); bias > n/2 {
		t.Fatalf("bias %d escaped the overwhelming adversary", bias)
	}
}
