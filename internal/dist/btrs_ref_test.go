package dist

import (
	"math"

	"plurality/internal/rng"
)

// binomialBTRSRef is binomialBTRS as it was before the BTPE bracket: every
// proposal the squeeze rejects goes through the Lgamma test. It is kept,
// test-only, as the reference the bracketed sampler must reproduce draw for
// draw and rng state for rng state (TestBTRSMatchesReference,
// FuzzBinomialMatchesReference). Do not edit it.
func binomialBTRSRef(r *rng.Rand, n int64, p float64) int64 {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)

	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b

	var (
		alpha, lpq, h float64
		m             float64
		haveExact     bool
	)

	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int64(kf)
		}
		if !haveExact {
			alpha = (2.83 + 5.1/b) * spq
			lpq = math.Log(p / q)
			m = math.Floor((nf + 1) * p)
			h = lgamma(m+1) + lgamma(nf-m+1)
			haveExact = true
		}
		v = v * alpha / (a/(us*us) + b)
		if math.Log(v) <= h-lgamma(kf+1)-lgamma(nf-kf+1)+(kf-m)*lpq {
			return int64(kf)
		}
	}
}
