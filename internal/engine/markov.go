package engine

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
)

// CliqueMarkov is the exact configuration-level engine for *stateful*
// rules (dynamics.StatefulRule / TransitionModel), whose update depends on
// the agent's own color: agents of each source color j transition
// independently with the row distribution TransitionProbs(c, j, ·), so
//
//	C(t+1) = Σ_j Multinomial(c_j, P(j → ·)),
//
// a sum of k independent multinomials. O(k²) per round, exact.
// It cross-validates against CliqueMultinomial when the rule ignores its
// own color (dynamics.ThreeMajorityKeepOwn).
type CliqueMarkov struct {
	counts
	rule  dynamics.StatefulRule
	model dynamics.TransitionModel
	row   []float64
	draw  []int64
	next  []int64
}

// NewCliqueMarkov builds the engine; the rule must implement
// dynamics.TransitionModel.
func NewCliqueMarkov(rule dynamics.StatefulRule, initial colorcfg.Config) *CliqueMarkov {
	model, ok := rule.(dynamics.TransitionModel)
	if !ok {
		panic(fmt.Sprintf("engine: stateful rule %q has no TransitionModel", rule.Name()))
	}
	k := initial.K()
	return &CliqueMarkov{
		counts: newCounts(initial),
		rule:   rule,
		model:  model,
		row:    make([]float64, k),
		draw:   make([]int64, k),
		next:   make([]int64, k),
	}
}

// Name implements Engine.
func (e *CliqueMarkov) Name() string {
	return fmt.Sprintf("clique-markov[%s]", e.rule.Name())
}

// Step implements Engine.
func (e *CliqueMarkov) Step(r *rng.Rand) {
	began := e.begin()
	clear(e.next)
	for j, cj := range e.cfg {
		if cj == 0 {
			continue
		}
		e.model.TransitionProbs(e.cfg, Color(j), e.row)
		dist.Multinomial(r, cj, e.row, e.draw)
		for h, v := range e.draw {
			e.next[h] += v
		}
	}
	copy(e.cfg, e.next)
	e.end(began)
}
