package stats

import (
	"math"
	"testing"

	"plurality/internal/rng"
)

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.999, 3.090232},
		{0.001, -3.090232},
		{1 - 1e-6, 4.753424},
		{0.84134474, 0.999999}, // Φ(1)
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Symmetry across the whole range.
	for _, p := range []float64{1e-8, 1e-4, 0.01, 0.2, 0.49} {
		if d := NormalQuantile(p) + NormalQuantile(1-p); math.Abs(d) > 1e-8 {
			t.Errorf("asymmetry at p=%v: %v", p, d)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestChiSquareCritical(t *testing.T) {
	// Reference values from standard χ² tables.
	cases := []struct {
		df    int
		alpha float64
		want  float64
	}{
		{10, 0.05, 18.307},
		{10, 0.001, 29.588},
		{50, 0.01, 76.154},
		{5, 0.05, 11.070},
	}
	for _, c := range cases {
		got := ChiSquareCritical(c.df, c.alpha)
		if math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("ChiSquareCritical(%d, %v) = %v, want ~%v", c.df, c.alpha, got, c.want)
		}
	}
}

func TestChiSquareGOFExactMatch(t *testing.T) {
	obs := []float64{10, 20, 30, 40}
	stat, df := ChiSquareGOF(obs, obs)
	if stat != 0 || df != 3 {
		t.Errorf("identical histograms: stat=%v df=%d, want 0, 3", stat, df)
	}
}

func TestChiSquareGOFCollapsesSmallBins(t *testing.T) {
	// Bins with expected < 5 must merge with neighbors: here the first
	// three bins (1+1+4=6) collapse into one.
	obs := []float64{2, 1, 3, 50, 50}
	exp := []float64{1, 1, 4, 50, 50}
	_, df := ChiSquareGOF(obs, exp)
	if df != 2 {
		t.Errorf("df = %d, want 2 (three small bins collapsed into one)", df)
	}
}

func TestChiSquareGOFTrailingImpossibleMass(t *testing.T) {
	// Observations landing in trailing bins the model declares impossible
	// (expected 0) must explode the statistic, not be silently dropped.
	obs := []float64{100, 100, 40}
	exp := []float64{120, 120, 0}
	stat, df := ChiSquareGOF(obs, exp)
	if df < 1 {
		t.Fatalf("degenerate df=%d", df)
	}
	if crit := ChiSquareCritical(df, 1e-6); stat <= crit {
		t.Errorf("impossible-state mass not detected: stat %v <= crit %v", stat, crit)
	}
}

func TestChiSquareGOFDegenerate(t *testing.T) {
	// Everything collapses into a single bin: df must signal degeneracy.
	if _, df := ChiSquareGOF([]float64{3}, []float64{3}); df >= 1 {
		t.Errorf("single-bin comparison returned df=%d, want < 1", df)
	}
}

func TestChiSquareGOFDetectsBias(t *testing.T) {
	// A grossly shifted histogram must blow past the 0.001 critical value.
	obs := []float64{500, 300, 200}
	exp := []float64{333, 333, 334}
	stat, df := ChiSquareGOF(obs, exp)
	if df != 2 {
		t.Fatalf("df = %d", df)
	}
	if crit := ChiSquareCritical(df, 0.001); stat <= crit {
		t.Errorf("biased histogram not detected: stat %v <= crit %v", stat, crit)
	}
}

func TestChiSquareGOFCalibration(t *testing.T) {
	// Sample a known discrete distribution many times; the chi-square
	// statistic against the true expectation must stay below the α=1e-4
	// critical value (fixed seed: deterministic).
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	r := rng.New(11)
	const draws = 200_000
	obs := make([]float64, len(probs))
	for i := 0; i < draws; i++ {
		u := r.Float64()
		acc := 0.0
		for j, p := range probs {
			acc += p
			if u < acc || j == len(probs)-1 {
				obs[j]++
				break
			}
		}
	}
	exp := make([]float64, len(probs))
	for j, p := range probs {
		exp[j] = p * draws
	}
	stat, df := ChiSquareGOF(obs, exp)
	if crit := ChiSquareCritical(df, 1e-4); stat > crit {
		t.Errorf("calibration: χ² = %v > crit %v (df=%d)", stat, crit, df)
	}
}

// TestKSTestUniform runs the discrete KS test the chain checks in
// internal/validate use: a uniform sample binned into 20 cells passes at
// α = 0.001, and the same sample shrunk by 0.8 fails.
func TestKSTestUniform(t *testing.T) {
	r := rng.New(3)
	const n, bins = 5000, 20
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = r.Float64()
	}
	exp := make([]float64, bins)
	for j := range exp {
		exp[j] = 1
	}
	hist := func(scale float64) []float64 {
		obs := make([]float64, bins)
		for _, x := range sample {
			obs[int(x*scale*bins)]++
		}
		return obs
	}
	crit := KSCriticalValue(n, 0.001)
	if d := KSDiscrete(hist(1), exp); d > crit {
		t.Errorf("uniform sample rejected: D=%v > crit %v", d, crit)
	}
	if d := KSDiscrete(hist(0.8), exp); d <= crit {
		t.Errorf("shifted sample accepted: D=%v <= crit %v", d, crit)
	}
}

func TestTotalVariation(t *testing.T) {
	if tv := TotalVariation([]float64{1, 0}, []float64{0, 1}); math.Abs(tv-1) > 1e-12 {
		t.Errorf("disjoint TV = %v, want 1", tv)
	}
	if tv := TotalVariation([]float64{2, 2}, []float64{500, 500}); tv != 0 {
		t.Errorf("proportional TV = %v, want 0 (inputs are normalized)", tv)
	}
	if tv := TotalVariation([]float64{0.5, 0.5}, []float64{0.75, 0.25}); math.Abs(tv-0.25) > 1e-12 {
		t.Errorf("TV = %v, want 0.25", tv)
	}
}
