package adversary

import (
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
)

func newEngine(counts ...int64) engine.Engine {
	return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, colorcfg.FromCounts(counts...))
}

func TestNone(t *testing.T) {
	e := newEngine(60, 40)
	a := None{}
	a.Corrupt(e, e.Config(), rng.New(1))
	if c := e.Config(); c[0] != 60 || c[1] != 40 {
		t.Fatalf("None mutated the configuration: %v", c)
	}
	if a.Budget() != 0 || a.Name() != "none" {
		t.Fatal("bad None metadata")
	}
}

func TestStrongest(t *testing.T) {
	e := newEngine(60, 40, 10)
	a := Strongest{F: 5}
	a.Corrupt(e, e.Config(), rng.New(1))
	c := e.Config()
	// Moves 5 from plurality (0) to strongest rival (1).
	if c[0] != 55 || c[1] != 45 || c[2] != 10 {
		t.Fatalf("Strongest moved wrong agents: %v", c)
	}
	if a.Budget() != 5 {
		t.Fatal("bad budget")
	}
}

func TestStrongestBudgetCap(t *testing.T) {
	e := newEngine(3, 2)
	Strongest{F: 100}.Corrupt(e, e.Config(), rng.New(1))
	c := e.Config()
	if c[0] != 0 || c[1] != 5 {
		t.Fatalf("over-budget corruption: %v", c)
	}
	if err := c.Validate(5); err != nil {
		t.Fatal(err)
	}
}

func TestStrongestSingleColorNoop(t *testing.T) {
	e := newEngine(10)
	Strongest{F: 5}.Corrupt(e, e.Config(), rng.New(1))
	if c := e.Config(); c[0] != 10 {
		t.Fatalf("k=1 corruption changed config: %v", c)
	}
}

func TestSpread(t *testing.T) {
	e := newEngine(90, 5, 5)
	Spread{F: 10}.Corrupt(e, e.Config(), rng.New(1))
	c := e.Config()
	if c[0] != 80 || c[1] != 10 || c[2] != 10 {
		t.Fatalf("Spread: %v", c)
	}
	if err := c.Validate(100); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadUnevenRemainder(t *testing.T) {
	e := newEngine(90, 4, 3, 3)
	Spread{F: 7}.Corrupt(e, e.Config(), rng.New(1))
	c := e.Config()
	if c[0] != 83 {
		t.Fatalf("Spread moved %d, want 7: %v", 90-c[0], c)
	}
	if err := c.Validate(100); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConservesTotal(t *testing.T) {
	r := rng.New(2)
	e := newEngine(50, 30, 20)
	Random{F: 15}.Corrupt(e, e.Config(), r)
	if err := e.Config().Validate(100); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSingleColorTerminates(t *testing.T) {
	r := rng.New(3)
	e := newEngine(100)
	Random{F: 10}.Corrupt(e, e.Config(), r) // must not hang
	if c := e.Config(); c[0] != 100 {
		t.Fatalf("k=1 random corruption changed config: %v", c)
	}
}

func TestBoost(t *testing.T) {
	e := newEngine(60, 40)
	Boost{F: 10}.Corrupt(e, e.Config(), rng.New(4))
	c := e.Config()
	if c[0] != 70 || c[1] != 30 {
		t.Fatalf("Boost: %v", c)
	}
}

func TestNames(t *testing.T) {
	for _, a := range []Adversary{Strongest{F: 1}, Spread{F: 2}, Random{F: 3}, Boost{F: 4}} {
		if a.Name() == "" || a.Budget() == 0 {
			t.Errorf("%T: bad metadata", a)
		}
	}
}

// TestStrongestDelaysButDoesNotPreventConsensus reproduces the Corollary 4
// qualitative claim end-to-end at small scale: with F well below s/λ the
// process still reaches near-plurality consensus.
func TestStrongestDelaysButDoesNotPreventConsensus(t *testing.T) {
	r := rng.New(5)
	n := int64(50000)
	init := colorcfg.Biased(n, 4, 10000)
	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	a := Strongest{F: 50}
	reached := false
	for round := 0; round < 2000; round++ {
		e.Step(r)
		a.Corrupt(e, e.Config(), r)
		first, _ := e.Config().TopTwo()
		if n-first <= 10*a.F {
			reached = true
			break
		}
	}
	if !reached {
		t.Fatalf("never reached M-plurality consensus; final %v", e.Config())
	}
	if e.Config().Plurality() != 0 {
		t.Fatalf("adversary flipped the winner: %v", e.Config())
	}
}
