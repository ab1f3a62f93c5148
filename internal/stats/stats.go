// Package stats provides the small statistical toolkit used by the
// benchmark harness: summary statistics, quantiles, the Wilson interval
// for proportions, and least-squares fits (including log-log slope fits
// used to estimate scaling exponents).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual one-pass summary of a sample. The JSON field
// names are part of the service API (internal/service job aggregates).
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"` // sample standard deviation (n-1 denominator)
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
	Q25    float64 `json:"q25"`
	Q75    float64 `json:"q75"`
}

// Summarize computes a Summary. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize on empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.Q25 = Quantile(sorted, 0.25)
	s.Q75 = Quantile(sorted, 0.75)
	return s
}

// String renders the summary compactly for tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g ± %.2g med=%.3g [%.3g, %.3g]",
		s.N, s.Mean, s.Std, s.Median, s.Min, s.Max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile on empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Quantiles returns the q-quantiles of an unsorted sample, sorting a
// private copy once. It panics on an empty sample.
func Quantiles(xs []float64, qs ...float64) []float64 {
	if len(xs) == 0 {
		panic("stats: Quantiles on empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = Quantile(sorted, q)
	}
	return out
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean on empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with successes/trials at confidence z (z = 1.96 for 95%).
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		panic("stats: WilsonInterval needs trials > 0")
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Fit is an ordinary least-squares line y = Slope·x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits y = a·x + b by least squares. It panics unless
// len(xs) == len(ys) >= 2.
func LinearFit(xs, ys []float64) Fit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LinearFit needs matched samples of size >= 2")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: LinearFit with constant x")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R².
	meanY := sy / n
	ssTot, ssRes := 0.0, 0.0
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}

// LogLogSlope fits log(y) = a·log(x) + b, estimating the scaling exponent
// a of y ~ x^a. All inputs must be positive.
func LogLogSlope(xs, ys []float64) Fit {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: LogLogSlope needs positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return LinearFit(lx, ly)
}
