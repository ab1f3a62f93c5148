package dynamics

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/rng"
)

// Lazy wraps a dynamics with per-agent update failures: each round every
// agent independently fails to update with probability Q, keeping its
// current color (a crash/omission fault model; also the "lazy chain"
// standard trick). The wrapped rule must have a closed-form adoption
// vector (ProbModel), giving the transition row
//
//	P(from → ·) = Q·δ_from + (1−Q)·p(c),
//
// which runs on the CliqueMarkov engine. Laziness rescales the drift by
// (1−Q), so convergence slows by the factor 1/(1−Q) and no more —
// experiment E19 verifies this robustness property for 3-majority.
type Lazy struct {
	Rule Rule
	Q    float64
}

// NewLazy wraps rule; q must be in [0, 1) and rule must implement
// ProbModel.
func NewLazy(rule Rule, q float64) Lazy {
	if !(q >= 0 && q < 1) { // also rejects NaN
		panic("dynamics: Lazy requires 0 <= q < 1")
	}
	if _, ok := rule.(ProbModel); !ok {
		panic(fmt.Sprintf("dynamics: Lazy requires a ProbModel rule, got %q", rule.Name()))
	}
	return Lazy{Rule: rule, Q: q}
}

// Name implements StatefulRule.
func (l Lazy) Name() string { return fmt.Sprintf("lazy(%.2f)[%s]", l.Q, l.Rule.Name()) }

// SampleSize implements StatefulRule.
func (l Lazy) SampleSize() int { return l.Rule.SampleSize() }

// ApplyOwn implements StatefulRule: with probability Q keep the own color,
// otherwise apply the wrapped rule to the samples.
func (l Lazy) ApplyOwn(own Color, samples []Color, r *rng.Rand) Color {
	if l.Q > 0 && r.Float64() < l.Q {
		return own
	}
	return l.Rule.Apply(samples, r)
}

// TransitionProbs implements TransitionModel.
func (l Lazy) TransitionProbs(c colorcfg.Config, from Color, dst []float64) {
	l.Rule.(ProbModel).AdoptionProbs(c, dst)
	for j := range dst {
		dst[j] *= 1 - l.Q
	}
	dst[from] += l.Q
}
