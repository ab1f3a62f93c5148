// Package engine provides the simulation engines that advance a color
// configuration one synchronous round at a time.
//
// Seven engines cover the paper's model (the clique) and its extensions:
//
//   - CliqueMultinomial — exact configuration-level engine. On the clique
//     every sample is an i.i.d. draw from the color distribution c/n and an
//     agent's own color never enters its update, so the next configuration
//     is exactly Multinomial(n, p(c)) where p is the rule's closed-form
//     adoption-probability vector (Lemma 1 for 3-majority). O(k) per round;
//     scales to n = 10^9.
//   - CliqueMarkov — exact configuration-level engine for stateful rules,
//     whose update depends on the agent's own color: a sum of k
//     multinomials, O(k²) per round (markov.go).
//   - CliqueSampled — exact agent-level sampling on the clique for any Rule
//     (needed for h-plurality and the Theorem 3 rule zoo, which have no
//     closed form). Each of the n agents draws h i.i.d. colors from an
//     alias table over c and applies the rule. O(n·h) per round,
//     parallelized across worker goroutines over blocks of agents, each
//     block with its own rng streams.
//   - GraphEngine — literal agent-array engine on an arbitrary topology
//     (a topo.NeighborSource), double-buffered; used to cross-validate the
//     clique engines and for the beyond-clique extension experiments
//     (graph_engine.go).
//   - Population — any stateless rule in the sequential population model
//     on the clique, n micro-steps per round (population.go).
//   - UndecidedExact and UndecidedPopulation — the undecided-state
//     dynamics, exactly at count level and in the sequential population
//     model (undecided.go).
//
// Every engine embeds one shared core (counts.go): the count
// configuration, n, the round counter and the round observer, with the
// Engine methods that only read or repaint them and the bracket every
// Step runs inside. Each engine adds its Name, its Step and its
// constructor. All engines expose an O(k) Config snapshot and support
// Repaint, the primitive the F-bounded dynamic adversary of Corollary 4
// uses to corrupt agents between rounds.
package engine

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
)

// Color aliases colorcfg.Color.
type Color = colorcfg.Color

// Engine advances a population of n agents over k colors one synchronous
// round at a time. Engines are not safe for concurrent use.
type Engine interface {
	// Name identifies the engine in tables and errors.
	Name() string
	// N is the number of agents.
	N() int64
	// K is the number of colors.
	K() int
	// Round is the number of completed rounds.
	Round() int
	// Config returns a copy of the current configuration (O(k)); every
	// engine implements it as AppendConfig(nil).
	Config() colorcfg.Config
	// AppendConfig appends the current configuration's k counts to dst
	// and returns the extended slice, so a caller that passes a buffer
	// with cap(dst) >= k reads the configuration without allocating
	// (core.Run refills one buffer per run this way).
	AppendConfig(dst colorcfg.Config) colorcfg.Config
	// Step advances the process one synchronous round using r.
	Step(r *rng.Rand)
	// Repaint changes the color of up to m agents currently holding color
	// `from` to color `to`, returning how many were changed. This is the
	// corruption primitive of the F-bounded adversary.
	Repaint(from, to Color, m int64) int64
	// Close releases engine resources (persistent worker goroutines in the
	// multi-worker engines; a no-op elsewhere). The engine must not be
	// stepped afterwards. Calling Close is optional — an unreachable
	// engine's workers are reaped by a GC cleanup — but loops that build
	// many engines should Close each one promptly.
	Close()
}

// ----- CliqueMultinomial -----

// CliqueMultinomial is the exact O(k)-per-round clique engine for rules
// with closed-form adoption probabilities (dynamics.ProbModel).
type CliqueMultinomial struct {
	counts
	rule  dynamics.Rule
	model dynamics.ProbModel
	probs []float64
	next  []int64
}

// NewCliqueMultinomial builds the exact engine from an initial
// configuration and a rule that implements dynamics.ProbModel. It panics if
// the rule has no closed form (use NewCliqueSampled instead).
func NewCliqueMultinomial(rule dynamics.Rule, initial colorcfg.Config) *CliqueMultinomial {
	model, ok := rule.(dynamics.ProbModel)
	if !ok {
		panic(fmt.Sprintf("engine: rule %q has no closed-form adoption probabilities; use CliqueSampled", rule.Name()))
	}
	return &CliqueMultinomial{
		counts: newCounts(initial),
		rule:   rule,
		model:  model,
		probs:  make([]float64, initial.K()),
		next:   make([]int64, initial.K()),
	}
}

// Name implements Engine.
func (e *CliqueMultinomial) Name() string {
	return fmt.Sprintf("clique-multinomial[%s]", e.rule.Name())
}

// Step implements Engine: C(t+1) ~ Multinomial(n, p(C(t))).
func (e *CliqueMultinomial) Step(r *rng.Rand) {
	began := e.begin()
	e.model.AdoptionProbs(e.cfg, e.probs)
	dist.Multinomial(r, e.n, e.probs, e.next)
	copy(e.cfg, e.next)
	e.end(began)
}

// SetConfig replaces the current configuration (counts are copied). n and k
// must match the engine's. The round counter is unchanged; sweeps and
// benchmarks use this to re-run transient rounds without rebuilding the
// engine.
func (e *CliqueMultinomial) SetConfig(c colorcfg.Config) {
	if c.K() != e.cfg.K() || c.N() != e.n {
		panic("engine: SetConfig dimension mismatch")
	}
	copy(e.cfg, c)
}

// ----- CliqueSampled -----

// CliqueSampled is the exact agent-level clique engine for arbitrary rules:
// each agent independently draws h colors from the current configuration
// (alias table) and applies the rule. Agents are anonymous on the clique,
// so only counts are stored. Agents are cut into fixed blocks that worker
// goroutines claim each round, and each block draws from streams keyed by
// (seed, round, block) (see graphLoop), so a run is deterministic for a
// fixed seed at any worker count. The goroutines are persistent (see
// workerPool), so a steady-state Step performs zero allocations; call Close
// when discarding a multi-worker engine early, or let the garbage collector
// reap the workers via the attached cleanup.
type CliqueSampled struct {
	counts
	crew // GraphEngine's clique row, without an agent array
	rule dynamics.Rule
}

// NewCliqueSampled builds the sampled engine. workers <= 1 runs
// single-threaded, and the worker count never changes the run; seed keys
// the per-block streams (the rng passed to Step is unused by this engine's
// sampling but kept for interface parity — pass the same generator you
// seed elsewhere for clarity).
func NewCliqueSampled(rule dynamics.Rule, initial colorcfg.Config, workers int, seed uint64) *CliqueSampled {
	e := &CliqueSampled{counts: newCounts(initial), rule: rule}
	h := rule.SampleSize()
	if h < 1 {
		panic("engine: rule sample size must be >= 1")
	}
	lp := &graphLoop{seed: seed, n: e.n, rule: rule, alias: dist.NewAliasCounts(initial), h: h}
	e.crew = newCrew(e, lp, workers, initial.K())
	return e
}

// Close stops the worker goroutines of a multi-worker engine. The engine
// must not be stepped afterwards. Optional: an unreachable engine's workers
// are stopped by a GC cleanup.
func (e *CliqueSampled) Close() { e.crew.close() }

// Name implements Engine.
func (e *CliqueSampled) Name() string {
	return fmt.Sprintf("clique-sampled[%s]", e.rule.Name())
}

// Step implements Engine: every agent draws h colors from c/n and applies
// the rule; the new counts are the sum of per-worker tallies. Steady-state
// cost is O(n·h) alias draws and zero allocations.
func (e *CliqueSampled) Step(_ *rng.Rand) {
	began := e.begin()
	e.crew.step(e.round, e.cfg)
	e.end(began)
}
