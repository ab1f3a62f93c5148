package stats

import "math"

// This file holds the goodness-of-fit toolkit shared by the sampler tests
// (internal/dist), the engine distribution cross-checks (internal/engine)
// and the statistical validation harness (internal/validate): chi-square
// GOF with automatic bin collapsing, critical values at arbitrary α, a
// Kolmogorov–Smirnov test for discrete laws, and total-variation distance.

// MinExpectedPerBin is the smallest expected count a chi-square bin may
// carry; ChiSquareGOF collapses adjacent bins until each aggregated bin
// reaches it (the classical validity rule for the χ² approximation).
const MinExpectedPerBin = 5

// ChiSquareGOF computes the chi-square goodness-of-fit statistic
// Σ (obs−exp)²/exp between an observed histogram and its expected counts,
// collapsing adjacent low-expectation bins (expected < MinExpectedPerBin)
// left-to-right so the χ² approximation stays valid. It returns the
// statistic and the degrees of freedom (usable bins − 1, accounting for
// the matched-totals constraint). df < 1 signals a degenerate comparison
// (too few usable bins); callers must treat that as "no test performed".
// It panics if the slices differ in length.
func ChiSquareGOF(obs, exp []float64) (stat float64, df int) {
	if len(obs) != len(exp) {
		panic("stats: ChiSquareGOF length mismatch")
	}
	var co, ce float64
	for i := range obs {
		co += obs[i]
		ce += exp[i]
		if ce >= MinExpectedPerBin {
			stat += (co - ce) * (co - ce) / ce
			df++
			co, ce = 0, 0
		}
	}
	// Fold any remainder in as one final (possibly under-filled) bin
	// rather than discarding its mass. The co > 0 arm matters: observed
	// mass in a trailing run of zero-expectation bins is exactly the
	// "engine reaches impossible states" signal and must blow the
	// statistic up, not vanish.
	if (ce > 0 || co > 0) && df > 0 {
		stat += (co - ce) * (co - ce) / math.Max(ce, 1)
		df++
	}
	df--
	return stat, df
}

// ChiSquareCritical returns the upper-α critical value of the χ²
// distribution with df degrees of freedom via the Wilson–Hilferty cube
// approximation, accurate to a few percent for df ≥ 3 across the α range
// used here (1e-2 … 1e-6).
func ChiSquareCritical(df int, alpha float64) float64 {
	if df < 1 {
		panic("stats: ChiSquareCritical needs df >= 1")
	}
	z := NormalQuantile(1 - alpha)
	d := float64(df)
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// NormalQuantile returns the standard-normal quantile Φ⁻¹(p) for
// p ∈ (0, 1) using Acklam's rational approximation refined by one
// Halley step (absolute error far below any statistical tolerance used
// in this repository). It panics outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile needs p in (0,1)")
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
	// One Halley refinement against the exact CDF.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// KSDiscrete returns sup_x |F_n(x) − F(x)| between an observed histogram
// and an expected one over the same integer-indexed support (both are
// normalized internally). This is the correct KS statistic for discrete
// data — the continuous-sample formula over the sorted sample over-counts
// at atoms with tied observations. Compared against KSCriticalValue the
// test is conservative for discrete laws (true α below nominal), which is
// the safe direction for a validation gate. It panics on a length
// mismatch or empty mass.
func KSDiscrete(obs, exp []float64) float64 {
	if len(obs) != len(exp) {
		panic("stats: KSDiscrete length mismatch")
	}
	var so, se float64
	for i := range obs {
		so += obs[i]
		se += exp[i]
	}
	if so <= 0 || se <= 0 {
		panic("stats: KSDiscrete on empty distribution")
	}
	d, co, ce := 0.0, 0.0, 0.0
	for i := range obs {
		co += obs[i] / so
		ce += exp[i] / se
		if diff := math.Abs(co - ce); diff > d {
			d = diff
		}
	}
	return d
}

// KSCriticalValue returns the asymptotic upper-α critical value of the
// one-sample KS statistic for n observations: sqrt(ln(2/α) / (2n)).
// The approximation is conservative-ish for n ≥ ~35; the validation
// harness uses n in the thousands.
func KSCriticalValue(n int, alpha float64) float64 {
	if n <= 0 {
		panic("stats: KSCriticalValue needs n > 0")
	}
	if alpha <= 0 || alpha >= 1 {
		panic("stats: KSCriticalValue needs alpha in (0,1)")
	}
	return math.Sqrt(math.Log(2/alpha) / (2 * float64(n)))
}

// TotalVariation returns ½ Σ |p_i − q_i| between two finite distributions
// (or histograms of equal mass — the inputs are normalized internally).
// It panics on a length mismatch or zero total mass.
func TotalVariation(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: TotalVariation length mismatch")
	}
	var sp, sq float64
	for i := range p {
		sp += p[i]
		sq += q[i]
	}
	if sp <= 0 || sq <= 0 {
		panic("stats: TotalVariation on empty distribution")
	}
	tv := 0.0
	for i := range p {
		tv += math.Abs(p[i]/sp - q[i]/sq)
	}
	return tv / 2
}
