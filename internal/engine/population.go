package engine

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
)

// Population runs a stateless dynamics (any dynamics.Rule) in the
// sequential population model on the clique: at every micro-step one
// uniform agent redraws its color by sampling h agents u.a.r. (with
// repetitions, self included — the clique semantics) and applying the
// rule. One Step() performs n micro-steps so Round() is comparable to the
// synchronous engines. This is the "asynchronous 3-majority" extension
// discussed alongside the population-model related work.
//
// On the clique agents are anonymous, so the engine is configuration-level:
// the updating agent's current color is drawn from c/n and the sampled
// colors likewise.
type Population struct {
	counts
	rule dynamics.Rule
	buf  []Color
}

// NewPopulation builds the sequential engine.
func NewPopulation(rule dynamics.Rule, initial colorcfg.Config) *Population {
	return &Population{
		counts: newCounts(initial),
		rule:   rule,
		buf:    make([]Color, rule.SampleSize()),
	}
}

// Name implements Engine.
func (e *Population) Name() string {
	return fmt.Sprintf("population[%s]", e.rule.Name())
}

// Step implements Engine: n sequential micro-steps.
func (e *Population) Step(r *rng.Rand) {
	began := e.begin()
	for i := int64(0); i < e.n; i++ {
		e.MicroStep(r)
	}
	e.end(began)
}

// MicroStep updates a single uniform agent.
func (e *Population) MicroStep(r *rng.Rand) {
	old := e.sampleColor(r)
	for s := range e.buf {
		e.buf[s] = e.sampleColor(r)
	}
	next := e.rule.Apply(e.buf, r)
	if next != old {
		e.cfg[old]--
		e.cfg[next]++
	}
}

// sampleColor draws a color proportionally to the current counts by
// inversion over the count prefix (O(k); k is small in the sequential
// experiments, and the distribution changes every micro-step so an alias
// table would be rebuilt per draw anyway).
func (e *Population) sampleColor(r *rng.Rand) Color {
	t := r.Int63n(e.n)
	for j, cj := range e.cfg {
		if t < cj {
			return Color(j)
		}
		t -= cj
	}
	panic("engine: color sampling overran configuration (count invariant broken)")
}
