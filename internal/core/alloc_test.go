package core

import (
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// TestRunAllocsIndependentOfRounds pins Run's O(1)-per-run allocation
// contract: with a Stop that never fires, a Run of 256 rounds allocates
// exactly as much as a Run of 8, on every engine, detached and with an
// obs.Recorder attached, and under each corrupting adversary. Each engine
// is built (and its pools and the recorder's ring warmed) before the
// measurement, so what is counted is Run's own bookkeeping plus the
// engine's steady-state Steps, which TestStepZeroAllocs pins at 0. A Run
// that read the configuration with a cloning Config call every round, in
// the loop or inside an adversary's Corrupt, would allocate once more per
// round.
func TestRunAllocsIndependentOfRounds(t *testing.T) {
	const n = 1200
	init := colorcfg.Biased(n, 6, 60)
	never := func(colorcfg.Config, int) bool { return false }
	multinomial := func() engine.Engine {
		return engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	}
	graph := func() engine.Engine {
		return engine.NewGraphEngine(dynamics.ThreeMajority{},
			topo.RandomRegular("regular:8", n, 8, rng.New(2)), init, 2, 11, nil)
	}
	type row struct {
		build func() engine.Engine
		adv   adversary.Adversary
	}
	rows := map[string]row{
		"clique-multinomial": {build: multinomial},
		"clique-markov": {build: func() engine.Engine {
			return engine.NewCliqueMarkov(dynamics.ThreeMajorityKeepOwn{}, init)
		}},
		"clique-sampled-w2": {build: func() engine.Engine {
			return engine.NewCliqueSampled(dynamics.ThreeMajority{}, init, 2, 7)
		}},
		"graph-regular8-w2": {build: graph},
		"population": {build: func() engine.Engine {
			return engine.NewPopulation(dynamics.ThreeMajority{}, init)
		}},
		"undecided-exact": {build: func() engine.Engine {
			return engine.NewUndecidedExact(init)
		}},
		"undecided-population": {build: func() engine.Engine {
			return engine.NewUndecidedPopulation(init)
		}},
		// The adversaries read Run's configuration buffer; the graph row
		// repaints through the agent array.
		"clique-multinomial+strongest": {multinomial, adversary.Strongest{F: 5}},
		"clique-multinomial+spread":    {multinomial, adversary.Spread{F: 5}},
		"clique-multinomial+random":    {multinomial, adversary.Random{F: 5}},
		"clique-multinomial+boost":     {multinomial, adversary.Boost{F: 5}},
		"graph-regular8-w2+strongest":  {graph, adversary.Strongest{F: 5}},
	}
	for name, row := range rows {
		for _, observed := range []bool{false, true} {
			mode := "detached"
			if observed {
				mode = "observed"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				e := row.build()
				defer e.Close()
				r := rng.New(3)
				var o obs.Observer
				if observed {
					o = &obs.Recorder{Cap: 16}
				}
				allocs := func(rounds int) float64 {
					return testing.AllocsPerRun(5, func() {
						res := Run(e, Options{MaxRounds: rounds, Stop: never, Rand: r, Adversary: row.adv, Observer: o})
						if res.Rounds != rounds || res.Final.K() != init.K() {
							t.Fatalf("run of %d rounds reported %d rounds, final %v", rounds, res.Rounds, res.Final)
						}
					})
				}
				if a8, a256 := allocs(8), allocs(256); a8 != a256 {
					t.Errorf("Run allocates %.0f objects at MaxRounds 8 and %.0f at 256, want equal", a8, a256)
				}
			})
		}
	}
}
