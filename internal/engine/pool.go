package engine

import (
	"runtime"
	"sync"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
)

// workerPool runs a fixed set of closures on persistent goroutines, one per
// worker. The multi-worker engines used to spawn fresh goroutines and a
// `done` channel every Step, which cost one closure allocation per worker
// per round; the pool instead parks each worker on a pre-allocated request
// channel, so a steady-state step() is 0 allocs/op: a WaitGroup Add/Wait
// pair and len(workers) empty-struct channel sends.
//
// Pool goroutines capture only their closure and channel — never the owning
// engine — so an abandoned engine stays collectable; engines attach a
// runtime.AddCleanup that calls shutdown when they become unreachable, and
// expose Close for deterministic teardown.
type workerPool struct {
	wg   sync.WaitGroup
	reqs []chan struct{}
	stop sync.Once
}

// newWorkerPool starts one goroutine per closure. The closures must be safe
// to run concurrently with one another (they are never run concurrently with
// themselves: step waits for all workers before returning).
func newWorkerPool(fns []func()) *workerPool {
	p := &workerPool{reqs: make([]chan struct{}, len(fns))}
	for i, fn := range fns {
		ch := make(chan struct{}, 1)
		p.reqs[i] = ch
		go func(fn func(), ch <-chan struct{}) {
			for range ch {
				fn()
				p.wg.Done()
			}
		}(fn, ch)
	}
	return p
}

// step runs every worker once and waits for all of them.
func (p *workerPool) step() {
	p.wg.Add(len(p.reqs))
	for _, ch := range p.reqs {
		ch <- struct{}{}
	}
	p.wg.Wait()
}

// shutdown terminates the worker goroutines. Idempotent; the pool must not
// be stepped afterwards.
func (p *workerPool) shutdown() {
	p.stop.Do(func() {
		for _, ch := range p.reqs {
			close(ch)
		}
	})
}

// attachPool spawns a persistent pool for fns and ties its shutdown to the
// owning engine's lifetime via runtime.AddCleanup, so abandoned engines do
// not leak parked goroutines. The fns must not capture the owner (or the
// cleanup never fires); the owner should also expose Close for
// deterministic teardown.
func attachPool[E any](owner *E, fns []func()) *workerPool {
	p := newWorkerPool(fns)
	runtime.AddCleanup(owner, func(p *workerPool) { p.shutdown() }, p)
	return p
}

// sampleBatchDraws is the number of samples drawn per agent block: large
// enough to amortize per-block seeding and per-call overhead and keep the
// alias table hot in cache, small enough that per-worker sample buffers
// stay a few KiB.
const sampleBatchDraws = 1024

// claim returns the next unclaimed block of the round: its index and its
// agent range [v0, v0+m). ok is false once every block has been claimed.
func (lp *graphLoop) claim() (b, v0, m int64, ok bool) {
	b = lp.claimed.Add(1) - 1
	v0 = b * lp.blockLen
	if v0 >= lp.n {
		return 0, 0, 0, false
	}
	return b, v0, min(lp.blockLen, lp.n-v0), true
}

// crew is the persistent worker set of an agent-level engine, CliqueSampled
// and GraphEngine alike: its workers claim the blocks of lp's schedule,
// each tallying into its own cache-line padded tally.
type crew struct {
	lp      *graphLoop
	workers []*graphWorker
	pool    *workerPool // nil for a single worker, which runs on Step's goroutine
}

// newCrew lays out the workers of an agent-level engine over lp's n
// agents: workers is clamped to [1, number of blocks], and each worker
// gets a padded k-color tally and a one-block sample buffer (plus an
// index buffer for the non-clique rows). It also sets lp.fast3, on every
// row, from the rule. Multi-worker crews run on a persistent pool tied to
// owner's lifetime (attachPool).
func newCrew[E any](owner *E, lp *graphLoop, workers, k int) crew {
	lp.blockLen = max(1, sampleBatchDraws/int64(lp.h))
	tm, ok := lp.rule.(dynamics.ThreeMajority)
	lp.fast3 = ok && !tm.UniformTie
	blocks := (lp.n + lp.blockLen - 1) / lp.blockLen
	workers = int(max(1, min(int64(workers), blocks)))
	bufLen := int(min(lp.blockLen, lp.n)) * lp.h
	tallies := paddedTallies(workers, k)
	c := crew{lp: lp, workers: make([]*graphWorker, workers)}
	for i := range c.workers {
		w := &graphWorker{tally: tallies[i], buf: make([]Color, bufLen)}
		if lp.alias == nil {
			w.idx = make([]int64, bufLen)
		}
		c.workers[i] = w
	}
	if workers > 1 {
		fns := make([]func(), workers)
		for i, w := range c.workers {
			fns[i] = func() { w.run(lp) }
		}
		c.pool = attachPool(owner, fns)
	}
	return c
}

// step computes round `round` into cfg: every block is claimed and run by
// some worker, and cfg becomes the sum of the workers' tallies.
func (c *crew) step(round int, cfg colorcfg.Config) {
	lp := c.lp
	if lp.alias != nil {
		lp.alias.ResetCounts(cfg)
	}
	lp.round = uint64(round)
	lp.claimed.Store(0)
	if c.pool == nil {
		c.workers[0].run(lp)
	} else {
		c.pool.step()
	}
	clear(cfg)
	for _, w := range c.workers {
		for j, v := range w.tally {
			cfg[j] += v
		}
	}
}

// close stops a multi-worker crew's goroutines (idempotent).
func (c *crew) close() {
	if c.pool != nil {
		c.pool.shutdown()
	}
}

// paddedTallies carves per-worker int64 tally slices out of one backing
// array with at least a full cache line (64 bytes = 8 int64s) of separation
// between consecutive workers' regions, so concurrent tally writes never
// false-share a cache line.
func paddedTallies(workers, k int) [][]int64 {
	stride := (k+7)&^7 + 8
	backing := make([]int64, stride*workers)
	out := make([][]int64, workers)
	for w := range out {
		base := w * stride
		out[w] = backing[base : base+k : base+k]
	}
	return out
}
