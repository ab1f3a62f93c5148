// Package core orchestrates plurality-consensus processes: it wires an
// engine, an optional F-bounded adversary, a stopping condition and
// per-round hooks into a single reproducible run, and exposes the paper's
// closed-form theory (Lemma 1/2 drift, Theorem 1 / Corollary 1 thresholds,
// lower-bound predictions) for the experiment harness.
//
// The typical entry point is Run:
//
//	init := colorcfg.Biased(n, k, s)
//	eng := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
//	res := core.Run(eng, core.Options{MaxRounds: 10000, Rand: rng.New(seed)})
//	fmt.Println(res.Rounds, res.WonInitialPlurality)
package core

import (
	"plurality/internal/adversary"
	"plurality/internal/colorcfg"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
)

// Color aliases colorcfg.Color.
type Color = colorcfg.Color

// StopFunc decides whether the process should stop in the given state.
// round is the number of completed rounds.
type StopFunc func(c colorcfg.Config, round int) bool

// WhenMonochromatic stops when a single color holds all colored agents.
// For the undecided engines "all colored agents" excludes undecided ones;
// use WhenConsensusOf for full-population consensus.
func WhenMonochromatic() StopFunc {
	return func(c colorcfg.Config, _ int) bool { return c.IsMonochromatic() }
}

// WhenConsensusOf stops when some color is supported by all n agents —
// the absorbing monochromatic configuration of the paper.
func WhenConsensusOf(n int64) StopFunc {
	return func(c colorcfg.Config, _ int) bool {
		first, _ := c.TopTwo()
		return first == n
	}
}

// WhenMPlurality stops once all but at most m agents support the plurality
// color — the M-plurality consensus of Section 3.1.
func WhenMPlurality(n, m int64) StopFunc {
	return func(c colorcfg.Config, _ int) bool {
		first, _ := c.TopTwo()
		return n-first <= m
	}
}

// WhenColorDominates stops when the given color is supported by all n
// agents.
func WhenColorDominates(j Color, n int64) StopFunc {
	return func(c colorcfg.Config, _ int) bool { return c[j] == n }
}

// WhenColorDead stops when the given color has no supporters.
func WhenColorDead(j Color) StopFunc {
	return func(c colorcfg.Config, _ int) bool { return c[j] == 0 }
}

// Any combines stop conditions with OR.
func Any(fs ...StopFunc) StopFunc {
	return func(c colorcfg.Config, round int) bool {
		for _, f := range fs {
			if f(c, round) {
				return true
			}
		}
		return false
	}
}

// Options configures a Run.
type Options struct {
	// MaxRounds bounds the run; 0 means the DefaultMaxRounds safety bound.
	MaxRounds int
	// Stop is the stopping condition (default WhenMonochromatic).
	Stop StopFunc
	// Adversary corrupts the configuration after every round (default
	// none). Corruption happens after the dynamics step, matching the
	// two-phase round of Section 3.1.
	Adversary adversary.Adversary
	// OnRound is called after every completed round (post-corruption) with
	// a read-only view of the configuration. It must not retain c.
	OnRound func(round int, c colorcfg.Config)
	// Rand drives the run. Required.
	Rand *rng.Rand
	// Observer, if non-nil, is attached to the engine before the first
	// round and receives per-round telemetry (wall time, post-round
	// configuration — see obs.Observer). It never touches Rand, so a
	// seeded run is byte-identical with and without one. Engines that do
	// not support observation silently ignore it.
	Observer obs.Observer
}

// DefaultMaxRounds is the safety bound applied when Options.MaxRounds is 0.
const DefaultMaxRounds = 1_000_000

// Result reports the outcome of a Run.
type Result struct {
	// Rounds is the number of rounds executed when the run ended.
	Rounds int
	// Stopped is true if the stop condition fired (false = MaxRounds hit).
	Stopped bool
	// Final is the final configuration (colored agents).
	Final colorcfg.Config
	// Winner is the plurality color of the final configuration.
	Winner Color
	// InitialPlurality is the plurality color of the initial configuration.
	InitialPlurality Color
	// WonInitialPlurality is true if the run stopped monochromatic on the
	// initial plurality color — the paper's success event.
	WonInitialPlurality bool
}

// Run drives the engine until the stop condition fires or MaxRounds is
// reached and reports the outcome.
func Run(e engine.Engine, opts Options) Result {
	if opts.Rand == nil {
		panic("core: Options.Rand is required")
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	stop := opts.Stop
	if stop == nil {
		stop = WhenMonochromatic()
	}
	var adv adversary.Adversary = adversary.None{}
	if opts.Adversary != nil {
		adv = opts.Adversary
	}
	if opts.Observer != nil {
		engine.Observe(e, opts.Observer)
	}

	initial := e.Config()
	res := Result{InitialPlurality: initial.Plurality()}

	cur := initial
	for round := 0; ; round++ {
		if stop(cur, round) {
			res.Stopped = true
			res.Rounds = round
			break
		}
		if round >= maxRounds {
			res.Rounds = round
			break
		}
		e.Step(opts.Rand)
		adv.Corrupt(e, opts.Rand)
		cur = e.Config()
		if opts.OnRound != nil {
			opts.OnRound(round+1, cur)
		}
	}
	res.Final = cur
	res.Winner = cur.Plurality()
	res.WonInitialPlurality = res.Stopped &&
		cur.IsMonochromatic() && res.Winner == res.InitialPlurality
	return res
}
