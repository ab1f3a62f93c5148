package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"plurality/internal/rng"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single-element summary: %+v", s)
	}
}

func TestSummarizePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if q := Quantile(xs, 0); q != 10 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 40 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 25 {
		t.Errorf("q0.5 = %v", q)
	}
	if q := Quantile(xs, 1.0/3); math.Abs(q-20) > 1e-12 {
		t.Errorf("q1/3 = %v", q)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := rng.New(1)
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := append([]float64(nil), raw...)
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = r.Float64()
			}
		}
		sort.Float64s(xs)
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("bad mean")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("interval [%v,%v] must contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("interval too wide: [%v,%v]", lo, hi)
	}
	// Extreme proportions stay in [0,1].
	lo, hi = WilsonInterval(0, 20, 1.96)
	if lo != 0 || hi <= 0 || hi > 0.3 {
		t.Fatalf("zero-successes interval [%v,%v]", lo, hi)
	}
	lo, hi = WilsonInterval(20, 20, 1.96)
	if hi != 1 || lo >= 1 || lo < 0.7 {
		t.Fatalf("all-successes interval [%v,%v]", lo, hi)
	}
}

func TestWilsonCoverageProperty(t *testing.T) {
	// Simulated coverage of the 95% Wilson interval should be near 95%.
	r := rng.New(2)
	const trials, draws, p = 2000, 60, 0.3
	covered := 0
	for i := 0; i < trials; i++ {
		succ := 0
		for j := 0; j < draws; j++ {
			if r.Float64() < p {
				succ++
			}
		}
		lo, hi := WilsonInterval(succ, draws, 1.96)
		if lo <= p && p <= hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 0.99 {
		t.Fatalf("Wilson coverage %v, want ~0.95", rate)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-3) > 1e-12 {
		t.Fatalf("fit %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R² = %v", f.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := rng.New(4)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] + 10 + (r.Float64()-0.5)*8
	}
	f := LinearFit(xs, ys)
	if math.Abs(f.Slope-3) > 0.05 {
		t.Fatalf("slope %v, want ~3", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R² = %v", f.R2)
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = 5·x^1.7
	xs := []float64{1, 2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * math.Pow(x, 1.7)
	}
	f := LogLogSlope(xs, ys)
	if math.Abs(f.Slope-1.7) > 1e-9 {
		t.Fatalf("exponent %v, want 1.7", f.Slope)
	}
}

func TestLogLogSlopePanicsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogLogSlope([]float64{1, 0}, []float64{1, 2})
}

func TestFitPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"short":     func() { LinearFit([]float64{1}, []float64{1}) },
		"mismatch":  func() { LinearFit([]float64{1, 2}, []float64{1}) },
		"constantX": func() { LinearFit([]float64{2, 2}, []float64{1, 3}) },
		"meanEmpty": func() { Mean(nil) },
		"wilson0":   func() { WilsonInterval(1, 0, 1.96) },
		"quantile0": func() { Quantile(nil, 0.5) },
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

func TestQuantiles(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	got := Quantiles(xs, 0, 0.5, 1)
	if got[0] != 10 || got[1] != 25 || got[2] != 40 {
		t.Errorf("Quantiles = %v", got)
	}
	if xs[0] != 40 {
		t.Error("Quantiles must not mutate its input")
	}
	if out := Quantiles([]float64{7}); len(out) != 0 {
		t.Errorf("Quantiles with no qs = %v", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantiles on empty sample must panic")
		}
	}()
	Quantiles(nil, 0.5)
}
