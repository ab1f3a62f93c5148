// Package dynamics implements the update rules studied in the paper:
//
//   - ThreeMajority — the paper's headline 3-majority dynamics (sample three
//     agents u.a.r., adopt the majority color, break rainbow ties by taking
//     the first sample, or uniformly with the UniformTie option; the paper
//     notes the two tie-breaks are equivalent).
//   - HPlurality — the h-sample generalization of Section 4.3 (adopt the
//     plurality among h samples, ties u.a.r.).
//   - Median — the 3-input median dynamics of Doerr et al. (SPAA'11), the
//     comparator for the exponential-gap result.
//   - Polling — the 1-majority (voter) dynamics, which fails plurality
//     consensus with constant probability even for k = 2 and s = Θ(n).
//   - TwoChoices — 2 samples, ties u.a.r.; provably equivalent to Polling.
//   - PermutationRule — arbitrary members of the 3-input dynamics class
//     D3(k) (Definition 1) built from a δ-profile over rainbow triples,
//     used to exercise the Theorem 3 negative results.
//
// A Rule is a pure function of the sampled colors (dynamics are stateless by
// definition — Definition 1); stateful protocols such as the undecided-state
// dynamics live in internal/engine because they need per-agent state.
//
// Rules whose per-round adoption probabilities have a closed form also
// implement ProbModel, which the exact O(k)-per-round clique engine uses
// (Lemma 1 gives the form for 3-majority).
package dynamics

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/rng"
)

// Color aliases colorcfg.Color for brevity inside the package API.
type Color = colorcfg.Color

// Rule is a stateless anonymous update rule: given the colors of the
// sampled agents (in sampling order), it returns the agent's next color.
// Implementations must be pure up to the provided rng and must return one
// of the sampled colors (the defining constraint of Definition 1).
type Rule interface {
	// Name identifies the rule in experiment tables.
	Name() string
	// SampleSize is the number of agents sampled per update (h).
	SampleSize() int
	// Apply returns the next color given the sampled colors. len(samples)
	// equals SampleSize(). Apply must not retain or mutate samples.
	Apply(samples []Color, r *rng.Rand) Color
}

// ProbModel is implemented by rules whose adoption probabilities on the
// clique have a closed form: dst[j] receives the probability that a single
// agent adopts color j at the next round given configuration c. Σ dst = 1.
// The exact clique engine draws C(t+1) ~ Multinomial(n, dst).
type ProbModel interface {
	AdoptionProbs(c colorcfg.Config, dst []float64)
}

// ----- 3-majority -----

// ThreeMajority is the paper's 3-majority dynamics. The zero value uses the
// paper's deterministic tie-break (first sample); set UniformTie for the
// uniform variant, which the paper observes yields the same process.
type ThreeMajority struct {
	// UniformTie, if set, breaks three-distinct-color ties uniformly at
	// random instead of taking the first sample.
	UniformTie bool
}

// Name implements Rule.
func (m ThreeMajority) Name() string {
	if m.UniformTie {
		return "3-majority(uniform-tie)"
	}
	return "3-majority"
}

// SampleSize implements Rule.
func (ThreeMajority) SampleSize() int { return 3 }

// Apply implements Rule: majority of three, rainbow ties to the first
// sample (or uniform).
func (m ThreeMajority) Apply(s []Color, r *rng.Rand) Color {
	a, b, c := s[0], s[1], s[2]
	switch {
	case a == b || a == c:
		return a
	case b == c:
		return b
	}
	if m.UniformTie {
		return s[r.Intn(3)]
	}
	return a
}

// AdoptionProbs implements ProbModel using Lemma 1:
//
//	µ_j(c) = c_j · (1 + (n·c_j − Σ_h c_h²)/n²),  p_j = µ_j / n.
//
// The formula holds for both tie-break variants (the tie term contributes
// c_j/n · P(two distinct non-j colors) either way by symmetry).
func (ThreeMajority) AdoptionProbs(c colorcfg.Config, dst []float64) {
	n := float64(c.N())
	if n == 0 {
		panic("dynamics: AdoptionProbs on empty configuration")
	}
	sumSq := c.SumSquares()
	n2 := n * n
	n3 := n2 * n
	for j, cj := range c {
		fj := float64(cj)
		dst[j] = fj * (n2 + n*fj - sumSq) / n3
	}
}

// ----- h-plurality -----

// HPlurality is the h-sample plurality dynamics of Section 4.3: sample h
// agents u.a.r. and adopt the most frequent color among them, breaking ties
// uniformly at random among the tied colors.
type HPlurality struct {
	H int
}

// NewHPlurality returns the h-plurality rule; h must be >= 1.
func NewHPlurality(h int) HPlurality {
	if h < 1 {
		panic("dynamics: h-plurality requires h >= 1")
	}
	return HPlurality{H: h}
}

// Name implements Rule.
func (p HPlurality) Name() string { return fmt.Sprintf("%d-plurality", p.H) }

// SampleSize implements Rule.
func (p HPlurality) SampleSize() int { return p.H }

// Apply implements Rule. It counts multiplicities in O(h²) (h is small by
// design — the paper's point is that large h buys little), finds the
// maximum multiplicity, and picks uniformly among the distinct colors that
// achieve it. Reservoir-style selection avoids allocation.
func (p HPlurality) Apply(s []Color, r *rng.Rand) Color {
	best := s[0]
	bestCount := 0
	ties := 0
	for i := 0; i < len(s); i++ {
		ci := s[i]
		// Only the first occurrence of each distinct color is a candidate.
		dup := false
		for j := 0; j < i; j++ {
			if s[j] == ci {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		count := 1
		for j := i + 1; j < len(s); j++ {
			if s[j] == ci {
				count++
			}
		}
		switch {
		case count > bestCount:
			best, bestCount, ties = ci, count, 1
		case count == bestCount:
			ties++
			// Reservoir sampling over tied colors: replace with prob 1/ties.
			if r.Intn(ties) == 0 {
				best = ci
			}
		}
	}
	return best
}

// ----- median -----

// Median is the 3-input median dynamics of Doerr et al. (SPAA'11): adopt
// the median of the three sampled colors under the natural integer order.
// It solves stabilizing consensus on (an approximation of) the median in
// O(log n) rounds but does not solve plurality consensus: it has the
// clear-majority property (the median of {a, a, b} is a) but not the
// uniform property (its rainbow δ-profile is (0, 6, 0)).
type Median struct{}

// Name implements Rule.
func (Median) Name() string { return "median" }

// SampleSize implements Rule.
func (Median) SampleSize() int { return 3 }

// Apply implements Rule.
func (Median) Apply(s []Color, _ *rng.Rand) Color {
	a, b, c := s[0], s[1], s[2]
	// Median of three without branchy sorting.
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// AdoptionProbs implements ProbModel. With F(j) = Σ_{h<=j} c_h / n the CDF
// of one sample, P(median <= j) = F(j)²·(3 − 2F(j)), so the per-color
// probability is the successive difference. O(k) per round.
func (Median) AdoptionProbs(c colorcfg.Config, dst []float64) {
	n := float64(c.N())
	if n == 0 {
		panic("dynamics: AdoptionProbs on empty configuration")
	}
	prevCDF := 0.0 // P(median <= j-1)
	cum := 0.0
	for j, cj := range c {
		cum += float64(cj) / n
		f := cum
		cdf := f * f * (3 - 2*f)
		dst[j] = cdf - prevCDF
		prevCDF = cdf
	}
}

// ----- polling (1-majority / voter) -----

// Polling is the 1-majority (voter) dynamics: adopt the color of a single
// sampled agent. On the clique it reaches consensus in Θ(n) expected rounds
// but converges to a minority color with constant probability even for
// k = 2 and bias s = Θ(n) — the paper's motivation for sampling three.
type Polling struct{}

// Name implements Rule.
func (Polling) Name() string { return "polling" }

// SampleSize implements Rule.
func (Polling) SampleSize() int { return 1 }

// Apply implements Rule.
func (Polling) Apply(s []Color, _ *rng.Rand) Color { return s[0] }

// AdoptionProbs implements ProbModel: p_j = c_j / n.
func (Polling) AdoptionProbs(c colorcfg.Config, dst []float64) {
	n := float64(c.N())
	if n == 0 {
		panic("dynamics: AdoptionProbs on empty configuration")
	}
	for j, cj := range c {
		dst[j] = float64(cj) / n
	}
}

// ----- two choices -----

// TwoChoices samples two agents and adopts their color if they agree,
// otherwise picks one of the two uniformly at random. The paper remarks it
// is equivalent to Polling; the algebra confirms it:
// p_j = (c_j/n)² + Σ_{h≠j} 2·(c_j/n)(c_h/n)·½ = c_j/n.
type TwoChoices struct{}

// Name implements Rule.
func (TwoChoices) Name() string { return "2-choices" }

// SampleSize implements Rule.
func (TwoChoices) SampleSize() int { return 2 }

// Apply implements Rule.
func (TwoChoices) Apply(s []Color, r *rng.Rand) Color {
	if s[0] == s[1] || r.Bool() {
		return s[0]
	}
	return s[1]
}

// AdoptionProbs implements ProbModel (identical to Polling; kept separate so
// the equivalence is validated by tests rather than assumed).
func (TwoChoices) AdoptionProbs(c colorcfg.Config, dst []float64) {
	Polling{}.AdoptionProbs(c, dst)
}
