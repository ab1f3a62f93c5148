// Package dist is the performance-critical sampling kernel layer of the
// simulator. Every engine hot path — the O(k)-per-round exact clique engine,
// the stateful Markov engine, the undecided-state dynamics, and the
// agent-sampling engines — draws its randomness through this package, so the
// samplers here determine whether a round costs O(k) or O(n).
//
// The kernels (complexities per draw; see DESIGN.md §5 for the measured
// numbers):
//
//   - Binomial — O(1) amortized for any (n, p): inversion (BINV) when
//     n·min(p,1-p) is small, Hörmann's transformed-rejection sampler with
//     squeeze (BTRS) otherwise. Never O(n) Bernoulli trials.
//   - Multinomial — the conditional-binomial chain: k-1 Binomial draws, so a
//     configuration-level round is O(k) and independent of n up to 10⁹+.
//   - MultinomialPMF / LogMultinomialPMF — evaluated in log-space via
//     math.Lgamma so the exact-chain transition matrices stay finite for
//     counts far beyond factorial overflow.
//   - Alias (alias.go) — Vose's alias method over a flat slot array, with an
//     allocation-free ResetCounts rebuild and a batched SampleMany.
//
// All functions are deterministic given the *rng.Rand stream and allocate
// nothing, making them safe for per-round use in steady-state 0 allocs/op
// engine loops.
package dist

import (
	"math"
	"math/bits"

	"plurality/internal/rng"
)

// binvThreshold is the n·min(p,1-p) value below which binomial inversion
// (expected n·p iterations, no transcendental calls per iteration) beats the
// rejection sampler's constant setup. 14 follows Hörmann's recommendation.
const binvThreshold = 14.0

// Binomial returns one draw X ~ Binomial(n, p) in O(1) amortized time.
//
// For n·min(p,1-p) < 14 it uses sequential inversion (BINV); otherwise it
// uses BTRS, Hörmann's transformed-rejection algorithm with squeeze (W.
// Hörmann, "The generation of binomial random variates", J. Statist. Comput.
// Simul. 46, 1993), which is exact and needs ~1.13 uniform pairs per draw
// regardless of n. p outside [0,1] is clamped; n <= 0 returns 0. A NaN p
// panics: only a bug in the caller's probabilities produces one, and no
// draw could be accepted against it.
func Binomial(r *rng.Rand, n int64, p float64) int64 {
	if math.IsNaN(p) {
		panic("dist: Binomial probability is NaN")
	}
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Work with q = min(p, 1-p) and mirror the result back: both samplers
	// below require p <= 1/2 for their run-time guarantees.
	if p > 0.5 {
		return n - Binomial(r, n, 1-p)
	}
	if float64(n)*p < binvThreshold {
		return binomialInversion(r, n, p)
	}
	return binomialBTRS(r, n, p)
}

// binomialInversion is BINV: walk the CDF from 0. Expected iterations n·p,
// so only used when that product is small. Requires 0 < p <= 1/2, where
// (1-p)^n >= e^(-2·binvThreshold) keeps the starting mass far from
// underflow.
func binomialInversion(r *rng.Rand, n int64, p float64) int64 {
	q := 1 - p
	s := p / q
	f := math.Exp(float64(n) * math.Log(q)) // (1-p)^n without pow-loop
	u := r.Float64()
	var x int64
	for u > f {
		u -= f
		x++
		if x > n {
			// Float round-off exhausted the tail; resample.
			x = 0
			f = math.Exp(float64(n) * math.Log(q))
			u = r.Float64()
			continue
		}
		f *= s * float64(n-x+1) / float64(x)
	}
	return x
}

// binomialBTRS is Hörmann's transformed-rejection sampler with squeeze.
// Requires n·p >= 14 and p <= 1/2 (Binomial's dispatch guarantees both). The
// squeeze accepts ~79% of proposals (~89% of draws) without any
// transcendental call. A proposal the squeeze misses is decided by BTPE's
// step-5.2 bracket on log f(k)/f(m) (Kachitvichyanukul & Schmeiser, CACM
// 31(2), 1988), widened by a bound on the float error of the Lgamma test, so
// it decides only where that test would decide the same way; inside the
// widened bracket the Lgamma test itself decides. The bracket first tries a
// cheap log of v' (logBounded), widened by its error bound, and calls
// math.Log only where that cannot decide. The draws and the rng stream are
// therefore bit-identical to running the Lgamma test alone.
func binomialBTRS(r *rng.Rand, n int64, p float64) int64 {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)

	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b

	// Constants of the bracket and of the Lgamma test, each computed lazily:
	// the squeeze accepts the bulk of draws without either, and the bracket
	// decides the bulk of the rest without the Lgamma constants.
	var (
		alpha, m, npq, slackLg float64
		lpq, h                 float64
		haveBracket, haveExact bool
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
			return int64(kf) // squeeze acceptance: no log/lgamma needed
		}
		if !haveBracket {
			alpha = (2.83 + 5.1/b) * spq
			m = math.Floor((nf + 1) * p)
			npq = nf * p * q
			// B = (n+1)·ln2·bitlen(n+1) bounds every term of the Lgamma
			// test below (|(k-m)·lpq| too, as p >= 14/n), whose float error
			// is a few ulps of B; 64·2⁻⁵²·B covers it.
			slackLg = 64 * 0x1p-52 * (nf + 1) * math.Ln2 * float64(bits.Len64(uint64(n)+1))
			haveBracket = true
		}
		v = v * alpha / (a/(us*us) + b)
		// The bracket [lo, hi] on log v'; a proposal with d >= npq/2 - 1
		// has none, and the Lgamma test decides it.
		lo, hi := math.Inf(-1), math.Inf(1)
		if d := math.Abs(kf - m); d < npq/2-1 {
			// 2⁻⁴⁹ of |t|+rho covers the bracket's own rounding.
			t, rho := btpeBracket(d, npq)
			slack := slackLg + 0x1p-49*(rho-t)
			lo, hi = t-rho-slack, t+rho+slack
			// la is within logBoundedErr of math.Log(v), so where it
			// clears an end by more, math.Log(v) is on the same side and
			// the bracket below would decide the same way.
			if la, ok := logBounded(v); ok {
				if la+logBoundedErr < lo {
					return int64(kf)
				}
				if la-logBoundedErr > hi {
					continue
				}
			}
		}
		lv := math.Log(v)
		if lv < lo {
			return int64(kf)
		}
		if lv > hi {
			continue
		}
		if !haveExact {
			lpq = math.Log(p / q)
			h = lgamma(m+1) + lgamma(nf-m+1)
			haveExact = true
		}
		if lv <= h-lgamma(kf+1)-lgamma(nf-kf+1)+(kf-m)*lpq {
			return int64(kf)
		}
	}
}

// logBoundedErr bounds |logBounded(v) - math.Log(v)| wherever logBounded
// reports ok. The cubic's truncation error is at most r⁴/4·(1+|r|) < 9.1e-10
// for |r| <= 1/129. The rounding of the sum, with or without fused
// multiply-adds, is a few ulps of its terms (each below 2¹¹), so under
// 10⁻¹²; math.Log's own error of at most 1 ulp of |log v| < 710 is about
// 10⁻¹³. The margin of over 10x also absorbs the rounding of the
// comparisons the bound enters. TestLogBoundedError pins the error below
// logBoundedErr/8.
const logBoundedErr = 1e-8

// logCellBits is the number of leading mantissa bits that pick a cell of
// logCells.
const logCellBits = 6

// logCells splits the mantissa range [1, 2) into 64 equal cells: inv is the
// reciprocal of cell j's centre 1 + (j+0.5)/64, and base is -math.Log(inv)
// less the exponent bias's 1023·ln 2, so for v = 2^(E-1023)·m with m in
// cell j, log v = E·ln 2 + base + log1p(m·inv - 1).
var logCells = func() (cells [1 << logCellBits]struct{ inv, base float64 }) {
	for j := range cells {
		inv := 1 / (1 + (float64(j)+0.5)/(1<<logCellBits))
		cells[j].inv, cells[j].base = inv, -math.Log(inv)-1023*math.Ln2
	}
	return cells
}()

// logBounded returns an approximation la of math.Log(v), within
// logBoundedErr of it, for v in [2⁻¹⁰²², 2¹⁰⁰⁰); ok is false for every
// other v (0, subnormals, larger values, ±Inf, NaN and negatives), which
// the caller must send to math.Log. It writes v = 2^e·m with m in [1, 2)
// from the float bits, looks up m's cell, and adds a cubic for
// log1p(r), r = m·inv - 1, with |r| <= 1/129.
func logBounded(v float64) (la float64, ok bool) {
	b := math.Float64bits(v)
	e := b >> 52 // biased exponent; the sign bit lifts a negative v past 2047
	if e-1 >= 1022+1000 {
		return 0, false // e = 0 (0, subnormals) wraps around to the top
	}
	c := &logCells[b>>(52-logCellBits)&(1<<logCellBits-1)]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*c.inv - 1
	return float64(e)*math.Ln2 + c.base + r*(1-r*(0.5-r*(1.0/3))), true
}

// btpeBracket returns the centre t and half-width rho of BTPE's step-5.2
// bracket t-rho <= log f(m±d)/f(m) <= t+rho, where f is the Binomial(n, p)
// pmf, m = ⌊(n+1)p⌋ and d < npq/2 - 1.
func btpeBracket(d, npq float64) (t, rho float64) {
	return -d * d / (2 * npq), (d / npq) * ((d*(d/3+0.625)+1.0/6)/npq + 0.5)
}

// lgamma wraps math.Lgamma, discarding the sign (arguments here are always
// positive, where Gamma > 0).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Multinomial fills out with one draw (X_1, ..., X_k) ~ Multinomial(n, probs)
// using the conditional-binomial chain:
//
//	X_j | X_1..X_{j-1}  ~  Binomial(n - Σ_{i<j} X_i,  p_j / (1 - Σ_{i<j} p_i)).
//
// Cost is at most k-1 Binomial draws — O(k) total, independent of n — and
// the chain short-circuits as soon as all n trials are spent, which on
// concentrated configurations (the common late-round case) makes it cheaper
// still. probs must be non-negative; it is treated as normalized (the last
// color absorbs any round-off so that Σ out = n always holds exactly). A NaN
// entry panics (in Binomial) once the chain reaches it. len(out) must equal
// len(probs). Allocation-free.
func Multinomial(r *rng.Rand, n int64, probs []float64, out []int64) {
	if len(out) != len(probs) {
		panic("dist: Multinomial output length mismatch")
	}
	k := len(probs)
	if k == 0 {
		if n > 0 {
			panic("dist: Multinomial with no categories and n > 0")
		}
		return
	}
	remaining := n
	rest := 1.0 // probability mass not yet consumed
	for j := 0; j < k-1; j++ {
		if remaining == 0 {
			clear(out[j:])
			return
		}
		if rest <= 0 {
			// Round-off consumed the mass early: dump the remainder here
			// (probabilistically negligible; preserves Σ out = n).
			out[j] = remaining
			clear(out[j+1:])
			return
		}
		p := probs[j] / rest
		if p > 1 {
			p = 1
		}
		x := Binomial(r, remaining, p)
		out[j] = x
		remaining -= x
		rest -= probs[j]
	}
	out[k-1] = remaining
}

// LogMultinomialPMF returns log P(X = counts) for X ~ Multinomial(n, probs)
// with n = Σ counts, computed in log-space via math.Lgamma:
//
//	log n! - Σ log c_j! + Σ c_j · log p_j.
//
// Categories with c_j = 0 contribute nothing even when p_j = 0 (the 0·log 0
// convention); a category with c_j > 0 and p_j <= 0 makes the probability
// zero (-Inf). Allocation-free.
func LogMultinomialPMF(counts []int64, probs []float64) float64 {
	if len(counts) != len(probs) {
		panic("dist: MultinomialPMF length mismatch")
	}
	var n int64
	logp := 0.0
	for j, c := range counts {
		if c < 0 {
			panic("dist: MultinomialPMF negative count")
		}
		if c == 0 {
			continue
		}
		n += c
		if probs[j] <= 0 {
			return math.Inf(-1)
		}
		cf := float64(c)
		logp += cf*math.Log(probs[j]) - lgamma(cf+1)
	}
	return logp + lgamma(float64(n)+1)
}

// MultinomialPMF returns P(X = counts) for X ~ Multinomial(Σ counts, probs).
// It exponentiates LogMultinomialPMF, so it underflows gracefully to 0 for
// astronomically unlikely configurations instead of overflowing factorials.
func MultinomialPMF(counts []int64, probs []float64) float64 {
	return math.Exp(LogMultinomialPMF(counts, probs))
}

// BinomialPMF returns P(X = x) for X ~ Binomial(n, p), evaluated in
// log-space. Used by tests and exact-chain cross-checks.
func BinomialPMF(n, x int64, p float64) float64 {
	if x < 0 || x > n {
		return 0
	}
	if p <= 0 {
		if x == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if x == n {
			return 1
		}
		return 0
	}
	nf, xf := float64(n), float64(x)
	return math.Exp(lgamma(nf+1) - lgamma(xf+1) - lgamma(nf-xf+1) +
		xf*math.Log(p) + (nf-xf)*math.Log(1-p))
}
