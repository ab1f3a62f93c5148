package engine

import (
	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/obs"
	"plurality/internal/rng"
)

// Undecided is the sentinel state of the undecided-state dynamics. It is
// not a color: configurations returned by the undecided engines count only
// colored agents, and Undecided() reports the rest.
const Undecided Color = -1

// UndecidedExact simulates the undecided-state dynamics (Angluin et al.;
// analyzed on the synchronous gossip model by Becchetti et al., SODA'15)
// exactly at configuration level on the clique.
//
// Rule, per round, for every agent u pulling one agent v u.a.r.:
//   - u colored j, v colored j or undecided → u stays j;
//   - u colored j, v colored h ≠ j        → u becomes undecided;
//   - u undecided,  v colored h           → u adopts h;
//   - u undecided,  v undecided           → u stays undecided.
//
// At count level the next configuration is a sum of independent binomial /
// multinomial draws: colored-j agents survive with probability (c_j + q)/n
// and undecided agents adopt color h with probability c_h/n, where q is the
// number of undecided agents. O(k) per round, exact.
//
// The SODA'15 analysis shows convergence time Θ(md(c) · log n) w.h.p.
// (md = monochromatic distance) and that for k = ω(sqrt n) the plurality
// color can die in one round — both reproduced in experiment E11.
type UndecidedExact struct {
	cfg       colorcfg.Config
	undecided int64
	n         int64
	round     int
	// scratch
	recruitProbs []float64
	recruits     []int64
	obs          obs.Observer
}

// NewUndecidedExact starts the dynamics from a fully-colored configuration
// (no undecided agents, matching the protocol's standard initialization).
func NewUndecidedExact(initial colorcfg.Config) *UndecidedExact {
	n := initial.N()
	if n <= 0 {
		panic("engine: empty initial configuration")
	}
	k := initial.K()
	return &UndecidedExact{
		cfg:          initial.Clone(),
		n:            n,
		recruitProbs: make([]float64, k+1),
		recruits:     make([]int64, k+1),
	}
}

// Name implements Engine.
func (e *UndecidedExact) Name() string { return "undecided-exact" }

// N implements Engine: total agents, colored plus undecided.
func (e *UndecidedExact) N() int64 { return e.n }

// K implements Engine.
func (e *UndecidedExact) K() int { return e.cfg.K() }

// Round implements Engine.
func (e *UndecidedExact) Round() int { return e.round }

// Config implements Engine: counts of colored agents only; the sum is
// N() - Undecided().
func (e *UndecidedExact) Config() colorcfg.Config { return e.AppendConfig(nil) }

// AppendConfig implements Engine.
func (e *UndecidedExact) AppendConfig(dst colorcfg.Config) colorcfg.Config {
	return append(dst, e.cfg...)
}

// UndecidedCount returns the number of agents currently undecided.
func (e *UndecidedExact) UndecidedCount() int64 { return e.undecided }

// Step implements Engine. All probabilities are computed from the
// start-of-round state before any count is mutated.
func (e *UndecidedExact) Step(r *rng.Rand) {
	began := obs.Began(e.obs)
	n := float64(e.n)
	q := e.undecided
	k := e.cfg.K()

	// Undecided recruits first (they need the pre-round colored counts):
	// Multinomial(q, (c_1, ..., c_k, q)/n); the final category is "stay
	// undecided".
	for j, cj := range e.cfg {
		e.recruitProbs[j] = float64(cj) / n
	}
	e.recruitProbs[k] = float64(q) / n
	if q > 0 {
		dist.Multinomial(r, q, e.recruitProbs, e.recruits)
	} else {
		clear(e.recruits)
	}

	// Colored survivors: stay_j ~ Binomial(c_j, (c_j + q)/n), independent
	// across colors given the start-of-round state.
	var becameUndecided int64
	for j, cj := range e.cfg {
		if cj == 0 {
			continue
		}
		pStay := (float64(cj) + float64(q)) / n
		stay := dist.Binomial(r, cj, pStay)
		becameUndecided += cj - stay
		e.cfg[j] = stay
	}

	for j := 0; j < k; j++ {
		e.cfg[j] += e.recruits[j]
	}
	e.undecided = becameUndecided + e.recruits[k]
	e.round++
	observeEnd(e.obs, began, e.round, e.n, e.cfg)
}

// SetObserver implements Observable.
func (e *UndecidedExact) SetObserver(o obs.Observer) { e.obs = o }

// Repaint implements Engine (corruption among colored agents only).
func (e *UndecidedExact) Repaint(from, to Color, m int64) int64 {
	return repaintCounts(e.cfg, from, to, m)
}

// Close implements Engine (no worker goroutines; no-op).
func (e *UndecidedExact) Close() {}

// ----- agent-level population variant -----

// UndecidedPopulation runs the undecided-state protocol in the sequential
// population model (Angluin et al., DISC'07): at every micro-step a uniform
// initiator u observes a uniform responder v ≠ u and applies the same
// update rule as UndecidedExact. One Step() performs n micro-steps (one
// "parallel round equivalent"), so Round() is comparable across engines.
type UndecidedPopulation struct {
	agents    []Color
	cfg       colorcfg.Config
	undecided int64
	n         int64
	round     int
	obs       obs.Observer
}

// NewUndecidedPopulation starts from a fully-colored configuration.
func NewUndecidedPopulation(initial colorcfg.Config) *UndecidedPopulation {
	n := initial.N()
	if n < 2 {
		panic("engine: population model needs at least 2 agents")
	}
	return &UndecidedPopulation{
		agents: initial.ToAgents(nil),
		cfg:    initial.Clone(),
		n:      n,
	}
}

// Name implements Engine.
func (e *UndecidedPopulation) Name() string { return "undecided-population" }

// N implements Engine.
func (e *UndecidedPopulation) N() int64 { return e.n }

// K implements Engine.
func (e *UndecidedPopulation) K() int { return e.cfg.K() }

// Round implements Engine (completed blocks of n micro-steps).
func (e *UndecidedPopulation) Round() int { return e.round }

// Config implements Engine: colored counts only.
func (e *UndecidedPopulation) Config() colorcfg.Config { return e.AppendConfig(nil) }

// AppendConfig implements Engine.
func (e *UndecidedPopulation) AppendConfig(dst colorcfg.Config) colorcfg.Config {
	return append(dst, e.cfg...)
}

// UndecidedCount returns the number of undecided agents.
func (e *UndecidedPopulation) UndecidedCount() int64 { return e.undecided }

// Step implements Engine: n sequential pairwise interactions.
func (e *UndecidedPopulation) Step(r *rng.Rand) {
	began := obs.Began(e.obs)
	for i := int64(0); i < e.n; i++ {
		e.MicroStep(r)
	}
	e.round++
	observeEnd(e.obs, began, e.round, e.n, e.cfg)
}

// SetObserver implements Observable.
func (e *UndecidedPopulation) SetObserver(o obs.Observer) { e.obs = o }

// MicroStep performs a single pairwise interaction.
func (e *UndecidedPopulation) MicroStep(r *rng.Rand) {
	u := r.Int63n(e.n)
	v := r.Int63n(e.n - 1)
	if v >= u {
		v++
	}
	cu, cv := e.agents[u], e.agents[v]
	switch {
	case cu == Undecided && cv != Undecided:
		e.agents[u] = cv
		e.undecided--
		e.cfg[cv]++
	case cu != Undecided && cv != Undecided && cu != cv:
		e.agents[u] = Undecided
		e.undecided++
		e.cfg[cu]--
	}
}

// Close implements Engine (no worker goroutines; no-op).
func (e *UndecidedPopulation) Close() {}

// Repaint implements Engine.
func (e *UndecidedPopulation) Repaint(from, to Color, m int64) int64 {
	if m <= 0 || from == to {
		return 0
	}
	if int(from) >= e.K() || int(to) >= e.K() || from < 0 || to < 0 {
		panic("engine: Repaint color out of range")
	}
	var moved int64
	for i := range e.agents {
		if moved == m {
			break
		}
		if e.agents[i] == from {
			e.agents[i] = to
			moved++
		}
	}
	e.cfg[from] -= moved
	e.cfg[to] += moved
	return moved
}
