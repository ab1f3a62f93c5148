package dist

import (
	"math"
	"testing"

	"plurality/internal/rng"
)

// checkBTRSMatchesRef draws Binomial(n, p) through binomialBTRS and through
// the pre-bracket reference from identically seeded generators, and fails
// unless the draws and the generator states after each draw are identical.
func checkBTRSMatchesRef(t *testing.T, got, want *rng.Rand, n int64, p float64, draws int) {
	t.Helper()
	for i := 0; i < draws; i++ {
		x, y := binomialBTRS(got, n, p), binomialBTRSRef(want, n, p)
		if x != y {
			t.Fatalf("Binomial(%d, %v) draw %d: bracketed sampler %d, reference %d", n, p, i, x, y)
		}
		if *got != *want {
			t.Fatalf("Binomial(%d, %v) draw %d: rng state diverged from the reference", n, p, i)
		}
	}
}

// TestBTRSMatchesReference pins the bracket's byte-identity claim: the
// bracketed sampler returns the reference's draws and leaves the generator
// in the reference's state.
//
// First on 10⁶ random (n, p) with n·p >= 14 and p <= 1/2, one draw each. n
// is log-uniform from 15 to 2⁴¹, which covers the goldens' n <= 120 regime
// and every n at which the bracket decides most exact tests (above ~10¹¹
// its float slack grows past its width). Below n = 28 no p <= 1/2 reaches
// n·p = 14, so those n are drawn at p = 1/2, outside Binomial's dispatch
// but inside what the sampler must reproduce. A further 10⁵ cases take n
// up to 2⁶², where the Lgamma test decides. Then 50 000 draws at each shape
// the benchmarks draw, so the bracket's decisions at one (n, p) are
// exercised in depth.
func TestBTRSMatchesReference(t *testing.T) {
	params := rng.New(2024)
	got, want := rng.New(1), rng.New(1)
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + params.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	random := func(cases int, nMax float64) {
		for i := 0; i < cases; i++ {
			n := int64(logUniform(15, nMax))
			p := 0.5
			if pMin := 14 / float64(n); pMin < p {
				p = logUniform(pMin, 0.5)
			}
			checkBTRSMatchesRef(t, got, want, n, p, 1)
		}
	}
	random(1_000_000, 1<<41)
	random(100_000, 1<<62)

	for _, tc := range []struct {
		n int64
		p float64
	}{
		{1_000_000_000, 0.3},
		{100_000_000, 1.0 / 8},
		{100_000_000, 1.0 / 64},
		{100_000_000, 1.0 / 512},
		{1_000_000, 1.0 / 16},
		{120, 0.5},
		{28, 0.5},
	} {
		checkBTRSMatchesRef(t, got, want, tc.n, tc.p, 50_000)
	}
}

// TestBTPEBracketBounds checks the premise the bracket stands on: for
// every d < npq/2 - 1 on both sides of m = ⌊(n+1)p⌋,
//
//	t - ρ <= log f(m±d)/f(m) <= t + ρ,  t = -d²/(2npq),
//	ρ = (d/npq)·((d(d/3 + 0.625) + 1/6)/npq + 0.5),
//
// with f the Binomial(n, p) pmf (Kachitvichyanukul & Schmeiser 1988, step
// 5.2), t and ρ as btpeBracket computes them for the sampler. The reference
// log-ratio is a running sum of math.Log1p of the pmf's successive ratios,
// whose rounding the small tolerance absorbs.
func TestBTPEBracketBounds(t *testing.T) {
	ps := []float64{0.0005, 0.001, 1.0 / 512, 1.0 / 64, 1.0 / 16, 1.0 / 8, 0.3, 0.5, 0.7, 0.95}
	checks := 0
	minSlack := math.Inf(1) // smallest distance to either bound, in units of ρ
	for _, n := range []int64{15, 30, 120, 1_000, 100_000, 1_000_000} {
		nf := float64(n)
		for _, p := range ps {
			if nf*p < 14 {
				continue
			}
			q := 1 - p
			npq := nf * p * q
			m := math.Floor((nf + 1) * p)
			// up and down accumulate log f(m+d)/f(m) and log f(m-d)/f(m)
			// from the ratios
			//   f(k+1)/f(k) - 1 = (np - k - q)/((k+1)q),
			//   f(k-1)/f(k) - 1 = (k - (n+1)p)/((n-k+1)p).
			var up, down float64
			for d := 0.0; d < npq/2-1; d++ {
				tc, rho := btpeBracket(d, npq)
				tol := 1e-12 * (1 + math.Abs(tc) + rho)
				for side, ref := range [2]float64{up, down} {
					k := m + d
					if side == 1 {
						k = m - d
					}
					if k < 0 || k > nf {
						continue
					}
					if ref < tc-rho-tol || ref > tc+rho+tol {
						t.Fatalf("n=%d p=%v k=%v (d=%v): log f(k)/f(m) = %.17g outside [%.17g, %.17g]",
							n, p, k, d, ref, tc-rho, tc+rho)
					}
					if d > 0 {
						minSlack = math.Min(minSlack, math.Min(ref-(tc-rho), tc+rho-ref)/rho)
					}
					checks++
				}
				k := m + d
				up += math.Log1p((nf*p - k - q) / ((k + 1) * q))
				k = m - d
				down += math.Log1p((k - (nf+1)*p) / ((nf - k + 1) * p))
			}
		}
	}
	if checks < 500_000 {
		t.Fatalf("only %d (n, p, d) cases checked", checks)
	}
	t.Logf("%d (n, p, d) cases; smallest slack %.3g ρ", checks, minSlack)
}

// FuzzBinomialMatchesReference drives the bracketed sampler and the
// pre-bracket reference with the same seed over the sampler's domain (finite
// p in (0, 1/2], n in [15, 2⁶²], n·p >= 14): draws and generator state must
// stay identical.
func FuzzBinomialMatchesReference(f *testing.F) {
	f.Add(uint64(1), int64(100), 0.3)
	f.Add(uint64(2), int64(100_000_000), 1.0/8)
	f.Add(uint64(3), int64(1_000_000_000), 0.3)
	f.Add(uint64(4), int64(28), 0.5)
	f.Add(uint64(5), int64(1)<<62, 0.5)
	f.Add(uint64(6), int64(1_000_000), 1.0/16)
	f.Add(uint64(7), int64(14_000), 0.001)
	f.Fuzz(func(t *testing.T, seed uint64, n int64, p float64) {
		if !(p > 0 && p <= 0.5) || n < 15 || n > 1<<62 || float64(n)*p < 14 {
			t.Skip("outside the sampler's domain")
		}
		checkBTRSMatchesRef(t, rng.New(seed), rng.New(seed), n, p, 64)
	})
}
