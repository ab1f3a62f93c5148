package dynamics

import (
	"math"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/rng"
)

func TestLazyRowsAreStochastic(t *testing.T) {
	l := NewLazy(ThreeMajority{}, 0.3)
	c := colorcfg.FromCounts(40, 35, 25)
	row := make([]float64, 3)
	for from := Color(0); from < 3; from++ {
		l.TransitionProbs(c, from, row)
		sum := 0.0
		for _, p := range row {
			if p < 0 || p > 1 {
				t.Fatalf("invalid prob %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row sums to %v", sum)
		}
		// The own color gets the laziness atom on top.
		base := make([]float64, 3)
		ThreeMajority{}.AdoptionProbs(c, base)
		want := 0.7*base[from] + 0.3
		if math.Abs(row[from]-want) > 1e-12 {
			t.Fatalf("diagonal %v, want %v", row[from], want)
		}
	}
}

func TestLazyZeroEqualsBase(t *testing.T) {
	l := NewLazy(ThreeMajority{}, 0)
	c := colorcfg.FromCounts(60, 40)
	row := make([]float64, 2)
	base := make([]float64, 2)
	l.TransitionProbs(c, 0, row)
	ThreeMajority{}.AdoptionProbs(c, base)
	for j := range row {
		if math.Abs(row[j]-base[j]) > 1e-12 {
			t.Fatalf("q=0 lazy differs from base at %d", j)
		}
	}
}

func TestLazyApplyOwnKeepRate(t *testing.T) {
	r := rng.New(1)
	l := NewLazy(ThreeMajority{}, 0.5)
	// own=9, samples unanimous on 3: half the updates keep 9.
	kept := 0
	const trials = 40000
	for i := 0; i < trials; i++ {
		if l.ApplyOwn(9, []Color{3, 3, 3}, r) == 9 {
			kept++
		}
	}
	rate := float64(kept) / trials
	if math.Abs(rate-0.5) > 0.01 {
		t.Fatalf("keep rate %v, want 0.5", rate)
	}
}

func TestLazyMetadata(t *testing.T) {
	l := NewLazy(Median{}, 0.25)
	if l.SampleSize() != 3 {
		t.Errorf("sample size %d", l.SampleSize())
	}
	if l.Name() != "lazy(0.25)[median]" {
		t.Errorf("name %q", l.Name())
	}
}

func TestLazyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"qNegative": func() { NewLazy(ThreeMajority{}, -0.1) },
		"qOne":      func() { NewLazy(ThreeMajority{}, 1) },
		"qNaN":      func() { NewLazy(ThreeMajority{}, math.NaN()) },
		"noModel":   func() { NewLazy(NewHPlurality(5), 0.5) },
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
