package engine

import (
	"runtime"
	"sync"

	"plurality/internal/colorcfg"
	"plurality/internal/rng"
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

// sampleBatchDraws is the target number of alias draws per SampleMany batch
// in the agent-sampling engines: large enough to amortize per-call overhead
// and keep the alias table hot in cache, small enough that per-worker sample
// buffers stay a few KiB.
const sampleBatchDraws = 1024

// newWorkers lays out the agent-level workers of CliqueSampled and
// GraphEngine alike, which is what makes the two step identically on the
// clique: agents [0, n) split into shardRange chunks over workers
// (clamped to [1, n]), each with its own rng.Streams stream of seed and a
// padded k-color tally. A worker's sample buffer holds h colors, or a
// batchBufLen batch when batched; withIdx adds an index buffer as long
// as the sample buffer.
func newWorkers(n int64, workers, k, h int, seed uint64, batched, withIdx bool) []*graphWorker {
	workers = int(max(1, min(int64(workers), n)))
	streams := rng.Streams(seed, workers)
	tallies := paddedTallies(workers, k)
	ws := make([]*graphWorker, workers)
	for i := range ws {
		from, to := shardRange(n, workers, i)
		bufLen := h
		if batched {
			bufLen = batchBufLen(h, to-from)
		}
		w := &graphWorker{r: streams[i], from: from, to: to, tally: tallies[i], buf: make([]Color, bufLen)}
		if withIdx {
			w.idx = make([]int64, len(w.buf))
		}
		ws[i] = w
	}
	return ws
}

// sumTallies sets cfg to the sum of the workers' round tallies.
func sumTallies(cfg colorcfg.Config, ws []*graphWorker) {
	clear(cfg)
	for _, w := range ws {
		for j, v := range w.tally {
			cfg[j] += v
		}
	}
}

// shardRange returns the [from, to) agent range of worker w out of
// `workers` when n agents are split into near-equal contiguous chunks (the
// last worker absorbs the remainder).
func shardRange(n int64, workers, w int) (from, to int64) {
	chunk := n / int64(workers)
	from = int64(w) * chunk
	to = from + chunk
	if w == workers-1 {
		to = n
	}
	return from, to
}

// batchBufLen sizes a worker's sample buffer: a whole multiple of the
// rule's sample size h targeting sampleBatchDraws draws, capped at the
// shard's total demand so tiny shards don't over-allocate.
func batchBufLen(h int, shard int64) int {
	batchAgents := max(int64(1), int64(sampleBatchDraws/h))
	if shard < batchAgents {
		batchAgents = shard
	}
	return int(batchAgents) * h
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
