package mc

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/rng"
)

// Pool is a persistent set of worker goroutines. One pool is meant to
// outlive many jobs (a whole sweep grid or experiment suite), so the
// per-round cost of replicate parallelism is a channel send, not a
// goroutine spawn. A Pool is safe for concurrent Run/Map calls.
//
// Each worker keeps cumulative busy-time and task counters (two clock
// reads per task — noise next to any real replicate), so long-lived
// holders like pluralityd can report per-worker utilization without
// instrumenting jobs: see WorkerBusy / WorkerTasks.
type Pool struct {
	workers int
	tasks   chan func(worker int)
	wg      sync.WaitGroup
	busyNs  []atomic.Int64 // cumulative busy nanoseconds per worker
	done    []atomic.Int64 // cumulative completed tasks per worker
}

// NewPool starts a pool with the given parallelism (<= 0 means
// GOMAXPROCS). Close releases the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan func(worker int)),
		busyNs:  make([]atomic.Int64, workers),
		done:    make([]atomic.Int64, workers),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			for f := range p.tasks {
				start := time.Now()
				f(w)
				p.busyNs[w].Add(time.Since(start).Nanoseconds())
				p.done[w].Add(1)
			}
		}(i)
	}
	return p
}

// Workers reports the pool's parallelism.
func (p *Pool) Workers() int { return p.workers }

// WorkerBusy returns a snapshot of each worker's cumulative busy time
// since the pool started. Safe to call concurrently with running jobs;
// in-flight tasks are not included until they finish.
func (p *Pool) WorkerBusy() []time.Duration {
	out := make([]time.Duration, p.workers)
	for i := range out {
		out[i] = time.Duration(p.busyNs[i].Load())
	}
	return out
}

// WorkerTasks returns a snapshot of each worker's cumulative completed
// task count since the pool started.
func (p *Pool) WorkerTasks() []int64 {
	out := make([]int64, p.workers)
	for i := range out {
		out[i] = p.done[i].Load()
	}
	return out
}

// Close stops the workers after in-flight tasks finish. It must not be
// called while a Run or Map is active.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

var (
	sharedMu sync.Mutex
	shared   = map[int]*Pool{}
)

// Shared returns a process-wide persistent pool with the given
// parallelism (<= 0 means GOMAXPROCS), creating it on first use. Shared
// pools are never closed; their idle workers cost nothing between jobs.
func Shared(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	p, ok := shared[workers]
	if !ok {
		p = NewPool(workers)
		shared[workers] = p
	}
	return p
}

// dispatch runs task(i, worker) on the pool for every i in [lo, hi),
// calling after(i) on the coordinating goroutine as each task completes.
// Submission stops on context cancellation or an after error; in-flight
// tasks always drain before dispatch returns. after may be nil.
func (p *Pool) dispatch(ctx context.Context, lo, hi int, task func(i, worker int), after func(int) error) error {
	if lo >= hi {
		return nil
	}
	done := make(chan int, hi-lo)
	recv := func(i int) error {
		if after != nil {
			return after(i)
		}
		return nil
	}
	var firstErr error
	sub, rcv := lo, lo
	for rcv < hi {
		canSubmit := firstErr == nil && sub < hi
		if !canSubmit && sub == rcv {
			break // aborted with nothing in flight
		}
		if canSubmit {
			i := sub
			t := func(w int) { task(i, w); done <- i }
			select {
			case p.tasks <- t:
				sub++
			case j := <-done:
				rcv++
				if err := recv(j); err != nil && firstErr == nil {
					firstErr = err
				}
			case <-ctx.Done():
				firstErr = ctx.Err()
			}
		} else {
			j := <-done
			rcv++
			if err := recv(j); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Map evaluates f on reps independent replicates across the pool and
// returns the results indexed by replicate. Replicate i receives
// rng.New(RepSeeds(seed, reps)[i]), so the output is deterministic for a
// fixed seed and independent of the pool's worker count. The error is
// non-nil only on context cancellation, in which case the slice holds
// zero values for replicates that did not run.
func Map[T any](ctx context.Context, p *Pool, reps int, seed uint64, f func(rep int, r *rng.Rand) T) ([]T, error) {
	out := make([]T, reps)
	if reps <= 0 {
		return out, nil
	}
	seeds := RepSeeds(seed, reps)
	err := p.dispatch(ctx, 0, reps, func(i, _ int) {
		out[i] = f(i, rng.New(seeds[i]))
	}, nil)
	return out, err
}
