// Package adversary implements the F-bounded dynamic adversaries of
// Section 3.1 / Corollary 4: after every round the adversary observes the
// full configuration and recolors up to F agents arbitrarily, trying to
// prevent plurality consensus. Corollary 4 shows 3-majority still reaches
// O(s/λ)-plurality consensus whenever F = o(s/λ).
//
// Adversaries act through the engine's Repaint primitive, so the same
// strategies run against every engine (count-level and agent-level). They
// read the configuration the caller hands them rather than cloning the
// engine's, so a corrupted round allocates nothing (core.Run passes its
// own configuration buffer).
package adversary

import (
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/engine"
	"plurality/internal/rng"
)

// Adversary corrupts up to a budget of agents between rounds.
type Adversary interface {
	// Name identifies the strategy in experiment tables.
	Name() string
	// Budget is the per-round corruption bound F.
	Budget() int64
	// Corrupt recolors up to Budget() agents of e. c must hold e's
	// current configuration (e.AppendConfig fills it); Corrupt reads it
	// in place of a copy of its own and may overwrite it, so after the
	// call c no longer need match e.
	Corrupt(e engine.Engine, c colorcfg.Config, r *rng.Rand)
}

// None is the absent adversary (F = 0).
type None struct{}

// Name implements Adversary.
func (None) Name() string { return "none" }

// Budget implements Adversary.
func (None) Budget() int64 { return 0 }

// Corrupt implements Adversary (no-op).
func (None) Corrupt(engine.Engine, colorcfg.Config, *rng.Rand) {}

// Strongest moves F agents per round from the current plurality color to
// the strongest rival — the greedy bias-erasing strategy, which is the
// worst case for the Lemma 3 drift argument.
type Strongest struct {
	F int64
}

// Name implements Adversary.
func (a Strongest) Name() string { return fmt.Sprintf("strongest(F=%d)", a.F) }

// Budget implements Adversary.
func (a Strongest) Budget() int64 { return a.F }

// Corrupt implements Adversary.
func (a Strongest) Corrupt(e engine.Engine, c colorcfg.Config, _ *rng.Rand) {
	if a.F <= 0 {
		return
	}
	top := c.Plurality()
	rival := rivalOf(c, top)
	if rival < 0 {
		return // k == 1: nothing to corrupt toward
	}
	e.Repaint(top, rival, a.F)
}

// Spread moves F agents per round from the current plurality color,
// distributing them as evenly as possible over all other colors — it
// suppresses the leader without building up a rival.
type Spread struct {
	F int64
}

// Name implements Adversary.
func (a Spread) Name() string { return fmt.Sprintf("spread(F=%d)", a.F) }

// Budget implements Adversary.
func (a Spread) Budget() int64 { return a.F }

// Corrupt implements Adversary.
func (a Spread) Corrupt(e engine.Engine, c colorcfg.Config, _ *rng.Rand) {
	if a.F <= 0 {
		return
	}
	top := c.Plurality()
	k := int64(c.K())
	if k < 2 {
		return
	}
	per := a.F / (k - 1)
	rem := a.F % (k - 1)
	for j := int64(0); j < k; j++ {
		if colorcfg.Color(j) == top {
			continue
		}
		m := per
		if rem > 0 {
			m++
			rem--
		}
		if m > 0 {
			e.Repaint(top, colorcfg.Color(j), m)
		}
	}
}

// Random moves F agents per round between uniformly random color pairs —
// a noise model rather than a worst case.
type Random struct {
	F int64
}

// Name implements Adversary.
func (a Random) Name() string { return fmt.Sprintf("random(F=%d)", a.F) }

// Budget implements Adversary.
func (a Random) Budget() int64 { return a.F }

// Corrupt implements Adversary.
func (a Random) Corrupt(e engine.Engine, c colorcfg.Config, r *rng.Rand) {
	k := e.K()
	if k < 2 {
		return
	}
	remaining := a.F
	for remaining > 0 {
		from := colorcfg.Color(r.Intn(k))
		to := colorcfg.Color(r.Intn(k))
		if from == to {
			continue
		}
		moved := e.Repaint(from, to, min(remaining, 1+remaining/4))
		if moved == 0 {
			// Source color may be empty; try once more with a fresh pair.
			// To guarantee termination, fall back to scanning for any
			// non-empty color of the configuration as it now stands.
			c = e.AppendConfig(c[:0])
			found := false
			for j, v := range c {
				if v > 0 && colorcfg.Color(j) != to {
					e.Repaint(colorcfg.Color(j), to, 1)
					remaining--
					found = true
					break
				}
			}
			if !found {
				return
			}
			continue
		}
		remaining -= moved
	}
}

// Boost moves F agents per round from the strongest rival TO the plurality
// color — a "helpful" adversary used as an experimental control.
type Boost struct {
	F int64
}

// Name implements Adversary.
func (a Boost) Name() string { return fmt.Sprintf("boost(F=%d)", a.F) }

// Budget implements Adversary.
func (a Boost) Budget() int64 { return a.F }

// Corrupt implements Adversary.
func (a Boost) Corrupt(e engine.Engine, c colorcfg.Config, _ *rng.Rand) {
	if a.F <= 0 {
		return
	}
	top := c.Plurality()
	rival := rivalOf(c, top)
	if rival < 0 {
		return
	}
	e.Repaint(rival, top, a.F)
}

// rivalOf returns the color with the largest count other than top, or -1
// if there is none.
func rivalOf(c colorcfg.Config, top colorcfg.Color) colorcfg.Color {
	rival := colorcfg.Color(-1)
	var best int64 = -1
	for j, v := range c {
		if colorcfg.Color(j) == top {
			continue
		}
		if v > best {
			best = v
			rival = colorcfg.Color(j)
		}
	}
	return rival
}
