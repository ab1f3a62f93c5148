package engine

import (
	"time"

	"plurality/internal/colorcfg"
	"plurality/internal/obs"
)

// counts is the state every engine shares, embedded in all seven: the
// k-color count configuration, the agent count n, the number of completed
// rounds and the optional round observer. It carries N, K, Round, Config,
// AppendConfig, SetObserver, a no-op Close and the count-level Repaint.
// An engine with worker goroutines overrides Close, and one with an agent
// array overrides Repaint with repaintAgents. Every Step is bracketed by
// begin and end.
type counts struct {
	cfg   colorcfg.Config
	n     int64
	round int
	obs   obs.Observer
}

// newCounts starts from a copy of initial. It panics on an empty
// configuration.
func newCounts(initial colorcfg.Config) counts {
	n := initial.N()
	if n <= 0 {
		panic("engine: empty initial configuration")
	}
	return counts{cfg: initial.Clone(), n: n}
}

// N implements Engine.
func (c *counts) N() int64 { return c.n }

// K implements Engine.
func (c *counts) K() int { return c.cfg.K() }

// Round implements Engine.
func (c *counts) Round() int { return c.round }

// Config implements Engine.
func (c *counts) Config() colorcfg.Config { return c.AppendConfig(nil) }

// AppendConfig implements Engine.
func (c *counts) AppendConfig(dst colorcfg.Config) colorcfg.Config {
	return append(dst, c.cfg...)
}

// SetObserver implements Observable.
func (c *counts) SetObserver(o obs.Observer) { c.obs = o }

// Close implements Engine: there is nothing to release.
func (c *counts) Close() {}

// Repaint implements Engine at count level.
func (c *counts) Repaint(from, to Color, m int64) int64 {
	if m <= 0 || from == to {
		return 0
	}
	if from < 0 || to < 0 || int(from) >= len(c.cfg) || int(to) >= len(c.cfg) {
		panic("engine: Repaint color out of range")
	}
	moved := min(m, c.cfg[from])
	c.cfg[from] -= moved
	c.cfg[to] += moved
	return moved
}

// repaintAgents is Repaint for an engine that also keeps an agent array:
// it moves the counts, then recolors the first agents of the array that
// hold `from`, as many as it moved.
func (c *counts) repaintAgents(agents []Color, from, to Color, m int64) int64 {
	moved := c.Repaint(from, to, m)
	left := moved
	for i := range agents {
		if left == 0 {
			break
		}
		if agents[i] == from {
			agents[i] = to
			left--
		}
	}
	return moved
}

// begin opens a Step. It reads the clock only when an observer is
// attached (obs.Began).
func (c *counts) begin() time.Time { return obs.Began(c.obs) }

// end closes a Step that began at began: it counts the round and reports
// it to the observer, if any. The observer is handed the live count
// array, which obs.Observer forbids it to retain.
func (c *counts) end(began time.Time) {
	c.round++
	if c.obs != nil {
		c.obs.ObserveRound(c.round, c.n, time.Since(began).Nanoseconds(), c.cfg)
	}
}
