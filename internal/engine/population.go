package engine

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/obs"
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
	rule  dynamics.Rule
	cfg   colorcfg.Config
	n     int64
	round int
	buf   []Color
	obs   obs.Observer
}

// NewPopulation builds the sequential engine.
func NewPopulation(rule dynamics.Rule, initial colorcfg.Config) *Population {
	n := initial.N()
	if n <= 0 {
		panic("engine: empty initial configuration")
	}
	return &Population{
		rule: rule,
		cfg:  initial.Clone(),
		n:    n,
		buf:  make([]Color, rule.SampleSize()),
	}
}

// Name implements Engine.
func (e *Population) Name() string {
	return fmt.Sprintf("population[%s]", e.rule.Name())
}

// N implements Engine.
func (e *Population) N() int64 { return e.n }

// K implements Engine.
func (e *Population) K() int { return e.cfg.K() }

// Round implements Engine.
func (e *Population) Round() int { return e.round }

// Config implements Engine.
func (e *Population) Config() colorcfg.Config { return e.AppendConfig(nil) }

// AppendConfig implements Engine.
func (e *Population) AppendConfig(dst colorcfg.Config) colorcfg.Config {
	return append(dst, e.cfg...)
}

// Step implements Engine: n sequential micro-steps.
func (e *Population) Step(r *rng.Rand) {
	began := obs.Began(e.obs)
	for i := int64(0); i < e.n; i++ {
		e.MicroStep(r)
	}
	e.round++
	observeEnd(e.obs, began, e.round, e.n, e.cfg)
}

// SetObserver implements Observable.
func (e *Population) SetObserver(o obs.Observer) { e.obs = o }

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

// Close implements Engine (no worker goroutines; no-op).
func (e *Population) Close() {}

// Repaint implements Engine.
func (e *Population) Repaint(from, to Color, m int64) int64 {
	return repaintCounts(e.cfg, from, to, m)
}
