package adversary

import (
	"testing"

	"plurality/internal/rng"
)

func TestStrongestZeroBudgetNoop(t *testing.T) {
	e := newEngine(10, 5)
	Strongest{F: 0}.Corrupt(e, e.Config(), rng.New(1))
	if c := e.Config(); c[0] != 10 || c[1] != 5 {
		t.Fatalf("zero-budget corruption changed config: %v", c)
	}
	Spread{F: 0}.Corrupt(e, e.Config(), rng.New(1))
	Boost{F: 0}.Corrupt(e, e.Config(), rng.New(1))
	if c := e.Config(); c[0] != 10 || c[1] != 5 {
		t.Fatalf("zero-budget corruption changed config: %v", c)
	}
}

func TestSpreadSingleColorNoop(t *testing.T) {
	e := newEngine(10)
	Spread{F: 5}.Corrupt(e, e.Config(), rng.New(2))
	if c := e.Config(); c[0] != 10 {
		t.Fatalf("k=1 spread changed config: %v", c)
	}
}

func TestBoostSingleColorNoop(t *testing.T) {
	e := newEngine(10)
	Boost{F: 5}.Corrupt(e, e.Config(), rng.New(3))
	if c := e.Config(); c[0] != 10 {
		t.Fatalf("k=1 boost changed config: %v", c)
	}
}

func TestRandomZeroBudget(t *testing.T) {
	e := newEngine(6, 4)
	Random{F: 0}.Corrupt(e, e.Config(), rng.New(4))
	if c := e.Config(); c[0] != 6 || c[1] != 4 {
		t.Fatalf("zero-budget random changed config: %v", c)
	}
}

func TestRandomWithEmptyColors(t *testing.T) {
	// Colors 1 and 2 are empty; the fallback scan path must still move
	// exactly F agents and terminate.
	r := rng.New(5)
	e := newEngine(100, 0, 0)
	Random{F: 10}.Corrupt(e, e.Config(), r)
	if err := e.Config().Validate(100); err != nil {
		t.Fatal(err)
	}
}

func TestRandomManyRounds(t *testing.T) {
	// Stress the corruption loop across many configurations.
	r := rng.New(6)
	e := newEngine(40, 30, 20, 10)
	for i := 0; i < 200; i++ {
		Random{F: 7}.Corrupt(e, e.Config(), r)
		if err := e.Config().Validate(100); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}
