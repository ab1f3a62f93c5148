package dist

import (
	"math"
	"testing"

	"plurality/internal/rng"
	"plurality/internal/stats"
)

// alpha999: each individual chi-square test rejects a correct sampler
// with probability ~1e-3. Seeds are fixed, so the tests are deterministic
// regardless.
const alpha999 = 0.001

// chiSquareCrit delegates to the shared GOF toolkit (internal/stats).
func chiSquareCrit(df int) float64 {
	return stats.ChiSquareCritical(df, alpha999)
}

// chiSquareStat wraps stats.ChiSquareGOF, failing the test on a
// degenerate (too-few-bins) comparison.
func chiSquareStat(t *testing.T, obs []float64, exp []float64) (stat float64, df int) {
	t.Helper()
	stat, df = stats.ChiSquareGOF(obs, exp)
	if df < 1 {
		t.Fatalf("too few usable bins (df=%d)", df)
	}
	return stat, df
}

func TestBinomialEdgeCases(t *testing.T) {
	r := rng.New(1)
	if got := Binomial(r, 0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d, want 0", got)
	}
	if got := Binomial(r, 100, 0); got != 0 {
		t.Errorf("Binomial(100, 0) = %d, want 0", got)
	}
	if got := Binomial(r, 100, 1); got != 100 {
		t.Errorf("Binomial(100, 1) = %d, want 100", got)
	}
	for i := 0; i < 1000; i++ {
		x := Binomial(r, 10, 0.5)
		if x < 0 || x > 10 {
			t.Fatalf("Binomial(10, .5) = %d out of range", x)
		}
		y := Binomial(r, 1_000_000_000, 0.25)
		if y < 0 || y > 1_000_000_000 {
			t.Fatalf("Binomial(1e9, .25) = %d out of range", y)
		}
	}
	// A NaN probability must panic, not spin: every comparison with NaN
	// is false, so the rejection sampler would never accept a draw.
	for name, f := range map[string]func(){
		"Binomial":    func() { Binomial(r, 100, math.NaN()) },
		"Multinomial": func() { Multinomial(r, 100, []float64{0.5, math.NaN(), 0.5}, make([]int64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a NaN probability did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestBinomialChiSquare checks goodness of fit against the exact PMF across
// parameter regimes covering both samplers (inversion and BTRS) and the
// p > 1/2 mirror.
func TestBinomialChiSquare(t *testing.T) {
	cases := []struct {
		name  string
		n     int64
		p     float64
		draws int
		seed  uint64
	}{
		{"inversion-small", 10, 0.3, 200_000, 11},
		{"inversion-rare", 5000, 0.001, 200_000, 12},     // np = 5
		{"btrs-moderate", 100, 0.3, 200_000, 13},         // np = 30
		{"btrs-large-n", 1_000_000, 0.0001, 200_000, 14}, // np = 100
		{"mirror-high-p", 40, 0.9, 200_000, 15},
		{"btrs-half", 500, 0.5, 200_000, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(tc.seed)
			// Histogram over a window around the mean covering essentially
			// all mass; out-of-window draws land in the edge bins via clamp.
			mean := float64(tc.n) * tc.p
			sd := math.Sqrt(mean * (1 - tc.p))
			lo := int64(math.Max(0, mean-12*sd-2))
			hi := int64(math.Min(float64(tc.n), mean+12*sd+2))
			nb := int(hi - lo + 1)
			obs := make([]float64, nb)
			for i := 0; i < tc.draws; i++ {
				x := Binomial(r, tc.n, tc.p)
				if x < lo {
					x = lo
				}
				if x > hi {
					x = hi
				}
				obs[x-lo]++
			}
			exp := make([]float64, nb)
			for b := range exp {
				exp[b] = BinomialPMF(tc.n, lo+int64(b), tc.p) * float64(tc.draws)
			}
			// Account for truncated tail mass in the edge bins.
			var tail float64
			for x := int64(0); x < lo; x++ {
				tail += BinomialPMF(tc.n, x, tc.p)
			}
			exp[0] += tail * float64(tc.draws)
			stat, df := chiSquareStat(t, obs, exp)
			if crit := chiSquareCrit(df); stat > crit {
				t.Errorf("χ² = %.1f > crit %.1f (df=%d): %s fit rejected", stat, crit, df, tc.name)
			}
		})
	}
}

// TestBinomialMean sanity-checks first and second moments in the extreme-n
// regime where PMF-based histograms are impractical.
func TestBinomialMean(t *testing.T) {
	r := rng.New(99)
	const n, p, draws = int64(2_000_000_000), 0.37, 20_000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		x := float64(Binomial(r, n, p))
		sum += x
		sumSq += x * x
	}
	mean := sum / draws
	wantMean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if d := math.Abs(mean - wantMean); d > 6*sd/math.Sqrt(draws) {
		t.Errorf("mean %.1f deviates from %.1f by %.1f (> 6 standard errors)", mean, wantMean, d)
	}
	variance := sumSq/draws - mean*mean
	if ratio := variance / (sd * sd); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("variance ratio %.3f outside [0.9, 1.1]", ratio)
	}
}

func TestBinomialDeterminism(t *testing.T) {
	a, b := rng.New(7), rng.New(7)
	for i := 0; i < 1000; i++ {
		x := Binomial(a, 1000, 0.3)
		y := Binomial(b, 1000, 0.3)
		if x != y {
			t.Fatalf("draw %d: %d != %d for identical seeds", i, x, y)
		}
	}
}

func TestMultinomialSumInvariant(t *testing.T) {
	r := rng.New(3)
	probs := []float64{0.25, 0.25, 0.2, 0.15, 0.1, 0.05}
	out := make([]int64, len(probs))
	for _, n := range []int64{0, 1, 7, 1000, 1_000_000, 1_000_000_000} {
		for rep := 0; rep < 50; rep++ {
			Multinomial(r, n, probs, out)
			var sum int64
			for _, v := range out {
				if v < 0 {
					t.Fatalf("negative category count %v (n=%d)", out, n)
				}
				sum += v
			}
			if sum != n {
				t.Fatalf("Σ out = %d, want %d", sum, n)
			}
		}
	}
}

// TestMultinomialChiSquareJoint tests the full joint distribution on a
// small system by enumerating every composition of n into k parts.
func TestMultinomialChiSquareJoint(t *testing.T) {
	const n, draws = 6, 300_000
	probs := []float64{0.5, 0.3, 0.2}
	r := rng.New(21)
	// Index compositions (a, b, n-a-b) by a*(n+1)+b.
	obs := make([]float64, (n+1)*(n+1))
	exp := make([]float64, (n+1)*(n+1))
	out := make([]int64, 3)
	for i := 0; i < draws; i++ {
		Multinomial(r, n, probs, out)
		obs[out[0]*(n+1)+out[1]]++
	}
	counts := make([]int64, 3)
	for a := int64(0); a <= n; a++ {
		for b := int64(0); a+b <= n; b++ {
			counts[0], counts[1], counts[2] = a, b, n-a-b
			exp[a*(n+1)+b] = MultinomialPMF(counts, probs) * draws
		}
	}
	stat, df := chiSquareStat(t, obs, exp)
	if crit := chiSquareCrit(df); stat > crit {
		t.Errorf("joint χ² = %.1f > crit %.1f (df=%d)", stat, crit, df)
	}
}

// TestMultinomialMarginal checks that a non-leading category's marginal is
// Binomial(n, p_j) — the conditional-binomial chain must not distort later
// categories.
func TestMultinomialMarginal(t *testing.T) {
	const n, draws = int64(200), 200_000
	probs := []float64{0.1, 0.4, 0.3, 0.2}
	const j = 2 // deep in the chain
	r := rng.New(33)
	out := make([]int64, len(probs))
	obs := make([]float64, n+1)
	for i := 0; i < draws; i++ {
		Multinomial(r, n, probs, out)
		obs[out[j]]++
	}
	exp := make([]float64, n+1)
	for x := int64(0); x <= n; x++ {
		exp[x] = BinomialPMF(n, x, probs[j]) * draws
	}
	stat, df := chiSquareStat(t, obs, exp)
	if crit := chiSquareCrit(df); stat > crit {
		t.Errorf("marginal χ² = %.1f > crit %.1f (df=%d)", stat, crit, df)
	}
}

func TestLogMultinomialPMFSumsToOne(t *testing.T) {
	probs := []float64{0.45, 0.3, 0.15, 0.1}
	const n = 8
	var total float64
	counts := make([]int64, 4)
	for a := int64(0); a <= n; a++ {
		for b := int64(0); a+b <= n; b++ {
			for c := int64(0); a+b+c <= n; c++ {
				counts[0], counts[1], counts[2], counts[3] = a, b, c, n-a-b-c
				total += MultinomialPMF(counts, probs)
			}
		}
	}
	if math.Abs(total-1) > 1e-10 {
		t.Errorf("PMF total = %.15f, want 1", total)
	}
}

func TestMultinomialPMFZeroProb(t *testing.T) {
	if p := MultinomialPMF([]int64{1, 2}, []float64{0, 1}); p != 0 {
		t.Errorf("impossible outcome has pmf %g, want 0", p)
	}
	if p := MultinomialPMF([]int64{0, 3}, []float64{0, 1}); math.Abs(p-1) > 1e-12 {
		t.Errorf("certain outcome has pmf %g, want 1", p)
	}
	// k=2 must agree with the binomial PMF.
	for x := int64(0); x <= 10; x++ {
		got := MultinomialPMF([]int64{x, 10 - x}, []float64{0.3, 0.7})
		want := BinomialPMF(10, x, 0.3)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("k=2 pmf(%d) = %g, want %g", x, got, want)
		}
	}
}

// TestHotPathAllocs asserts the samplers allocate nothing: they sit inside
// every engine's per-round loop.
func TestHotPathAllocs(t *testing.T) {
	r := rng.New(5)
	probs := []float64{0.4, 0.3, 0.2, 0.1}
	out := make([]int64, 4)
	if a := testing.AllocsPerRun(200, func() {
		Binomial(r, 1_000_000, 0.3)
		Multinomial(r, 1_000_000, probs, out)
		LogMultinomialPMF(out, probs)
	}); a != 0 {
		t.Errorf("sampler hot path allocates %.1f objects/op, want 0", a)
	}
}

func BenchmarkBinomialInversion(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Binomial(r, 1000, 0.005)
	}
}

// BenchmarkBinomialBTRS times the rejection sampler at the shapes the
// workloads draw: n=10⁸ at p = 1/8, 1/64 and 1/512 is the first conditional
// binomial of a k=8, 64 and 512 clique round at a uniform start; n=10⁶ at
// p = 1/16 is a daemon job's (k=16); n=10⁹ at p = 0.3 is the extreme-n row.
func BenchmarkBinomialBTRS(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int64
		p    float64
	}{
		{"n=1e9/p=0.3", 1_000_000_000, 0.3},
		{"n=1e8/p=1_8", 100_000_000, 1.0 / 8},
		{"n=1e8/p=1_64", 100_000_000, 1.0 / 64},
		{"n=1e8/p=1_512", 100_000_000, 1.0 / 512},
		{"n=1e6/p=1_16", 1_000_000, 1.0 / 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(1)
			b.ReportAllocs()
			for b.Loop() {
				Binomial(r, bc.n, bc.p)
			}
		})
	}
}

func BenchmarkMultinomialK(b *testing.B) {
	for _, k := range []int{2, 16, 128, 1024} {
		b.Run(map[int]string{2: "k=2", 16: "k=16", 128: "k=128", 1024: "k=1024"}[k], func(b *testing.B) {
			r := rng.New(1)
			probs := make([]float64, k)
			for j := range probs {
				probs[j] = 1 / float64(k)
			}
			out := make([]int64, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Multinomial(r, 1_000_000_000, probs, out)
			}
		})
	}
}
