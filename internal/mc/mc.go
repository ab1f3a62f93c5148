// Package mc is the replicate-parallel Monte Carlo runner shared by the
// experiment harness (internal/expt), cmd/sweep and cmd/experiments.
//
// Every statistical claim reproduced from the paper — md(c)·log n
// convergence, rule-zoo failure rates, bias tightness — is a Monte Carlo
// statement over independent replicates. This package centralizes the
// replicate loop that used to be hand-rolled at each call site:
//
//   - a persistent worker Pool executes replicates in parallel;
//   - each replicate gets a private seed drawn from a jump-isolated
//     rng stream (RepSeeds), so results are deterministic for a fixed
//     base seed and — because seeds are pre-derived — independent of the
//     worker count and of goroutine scheduling;
//   - a Job streams one Record per replicate, in replicate order, to an
//     optional sink (typically a JSONL writer; see AppendRecord), and
//     returns the full record slice for in-memory aggregation (Aggregate);
//   - interrupted grids resume from their JSONL output: Prefix proves
//     which records on disk an uninterrupted run would have written, and
//     that replicate prefix goes back through RunOpts.Done and is not
//     re-executed.
//
// The typical flow:
//
//	pool := mc.NewPool(workers) // or mc.Shared(workers)
//	defer pool.Close()
//	job := mc.Job{Name: "3majority/n=1e5/k=8", Seed: 1, Replicates: 20,
//	    MaxRounds: 200_000,
//	    New: func(seed uint64) mc.Run {
//	        return func() mc.Record { /* one full simulation */ },
//	    }}
//	recs, err := pool.Run(ctx, job, mc.RunOpts{Sink: sink})
//	agg := mc.Aggregate(recs)
package mc

import (
	"context"
	"fmt"
	"time"

	"plurality/internal/rng"
	"plurality/internal/stats"
)

// Record is the result of one replicate. The runner fills Job, Rep and
// Seed itself; the replicate's Run supplies the outcome fields.
type Record struct {
	// Job names the grid cell / experiment this record belongs to.
	Job string `json:"job,omitempty"`
	// Rep is the replicate index within the job, 0-based.
	Rep int `json:"rep"`
	// Seed is the replicate's private seed: rng.New(Seed) reproduces the
	// replicate in isolation.
	Seed uint64 `json:"seed"`
	// Rounds is the number of simulated rounds the replicate executed.
	Rounds int `json:"rounds"`
	// Success is the replicate's success event (for the paper's tables:
	// consensus on the initial plurality color).
	Success bool `json:"success"`
	// Value carries an optional rule-specific metric.
	Value float64 `json:"value,omitempty"`
}

// Run executes one fully-seeded replicate and returns its Record. The
// runner overwrites the Record's Job, Rep and Seed fields.
type Run func() Record

// Job describes one Monte Carlo estimate: Replicates independent
// executions of the closure produced by New.
type Job struct {
	// Name identifies the job in Records and resume files. Jobs in one
	// JSONL grid must have distinct names.
	Name string
	// Seed is the base seed; per-replicate seeds derive from it (RepSeeds).
	Seed uint64
	// Replicates is the number of independent executions.
	Replicates int
	// MaxRounds is the round budget the factory should apply to each
	// replicate (callers close over it when building New; it rides on the
	// Job so grid drivers have one place to thread the budget through).
	MaxRounds int
	// New builds the replicate closure from its private 64-bit seed.
	New func(seed uint64) Run
}

// RunOpts tunes one Pool.Run call.
type RunOpts struct {
	// Done is the job's already-computed replicate prefix: the records of
	// replicates 0, 1, …, len(Done)-1, typically proven by Prefix from a
	// JSONL file. Those replicates are not re-executed and not re-emitted
	// to Sink; each record's rep and seed are checked against the job's
	// and the records are included in the returned slice.
	Done []Record
	// Sink, if non-nil, receives each newly computed Record in replicate
	// order. A Sink error aborts the run after in-flight replicates drain.
	Sink func(Record) error
	// OnStart, if non-nil, is called once when the job starts executing —
	// after validation, before any replicate runs. A job that waits in a
	// Queue backlog fires it only when an executor picks the job up, which
	// is how a service distinguishes "queued" from "running".
	OnStart func()
	// OnProgress, if non-nil, is called once per newly computed replicate,
	// in replicate order, after the record has cleared the Sink. done is
	// the number of records complete so far — including any resumed Done
	// prefix — and total is the job's replicate count. Records supplied
	// via Done never fire OnProgress: they were computed (and counted) by
	// a previous run, which is what lets a service's throughput counters
	// survive a crash-resume without double-counting. Like Sink, it runs
	// on the coordinating goroutine, never concurrently with itself.
	OnProgress func(rec Record, done, total int)
	// OnTiming, if non-nil, receives each newly computed replicate's
	// scheduling telemetry. Timing is measured only when OnTiming is set
	// and delivered on the coordinating goroutine in *completion* order
	// (unlike Sink/OnProgress it is not reordered to replicate order —
	// queue-wait telemetry is about when things actually ran). Timing is
	// a side channel by design: it never enters Record, which stays a
	// pure function of the job spec.
	OnTiming func(RepTiming)
}

// RepTiming is the scheduling telemetry of one executed replicate.
type RepTiming struct {
	// Rep is the replicate index; Worker is the pool worker that ran it.
	Rep    int
	Worker int
	// QueueWait is how long the replicate waited between job start and
	// the moment a worker picked it up; Exec is its run time.
	QueueWait time.Duration
	Exec      time.Duration
}

// RepSeeds returns the n per-replicate seeds derived from a job's base
// seed. The seed stream is jump-isolated: a seed-initialized generator is
// advanced by 2^128 steps before any seed is drawn, so replicate seeds
// never collide with draws a caller makes from rng.New(seed) directly.
// Seeds are pre-derived for all replicates, which is what makes results
// independent of worker count and scheduling. They come in order from one
// stream, so RepSeeds(seed, m) is the first m of RepSeeds(seed, n) for
// every m <= n.
func RepSeeds(seed uint64, n int) []uint64 {
	src := rng.New(seed)
	src.Jump()
	out := make([]uint64, n)
	for i := range out {
		out[i] = src.Uint64()
	}
	return out
}

// Run executes the job's replicates on the pool and returns the records
// indexed by replicate. Records in opts.Done are reused; the rest are
// computed. On a context or sink error the returned error is non-nil and
// the slice holds only the records completed before the abort.
func (p *Pool) Run(ctx context.Context, job Job, opts RunOpts) ([]Record, error) {
	n := job.Replicates
	if n <= 0 {
		return nil, fmt.Errorf("mc: job %q needs Replicates > 0", job.Name)
	}
	if job.New == nil {
		return nil, fmt.Errorf("mc: job %q has a nil factory", job.Name)
	}
	seeds := RepSeeds(job.Seed, n)
	lo := len(opts.Done)
	if lo > n {
		return nil, fmt.Errorf("mc: job %q resume prefix has %d records, more than its %d replicates", job.Name, lo, n)
	}
	recs := make([]Record, n)
	comp := make([]bool, n) // computed this run
	for i, rec := range opts.Done {
		if rec.Rep != i || rec.Seed != seeds[i] {
			return nil, fmt.Errorf("mc: job %q resume record %d is rep %d with seed %d, want rep %d with seed %d (file from a different base seed?)",
				job.Name, i, rec.Rep, rec.Seed, i, seeds[i])
		}
		rec.Job = job.Name
		recs[i] = rec
	}
	if opts.OnStart != nil {
		opts.OnStart()
	}
	// flush emits computed records to the sink in replicate order, from
	// the end of the Done prefix (those records are already wherever the
	// sink writes). A sink error latches: the failed record is never
	// retried (the sink may have partially written it) and no further
	// records are emitted while the in-flight replicates drain.
	flush := lo
	sinkFailed := false
	advance := func() error {
		if sinkFailed {
			return nil
		}
		for flush < n && comp[flush] {
			if opts.Sink != nil {
				if err := opts.Sink(recs[flush]); err != nil {
					sinkFailed = true
					return err
				}
			}
			if opts.OnProgress != nil {
				opts.OnProgress(recs[flush], flush+1, n)
			}
			flush++
		}
		return nil
	}
	var timings []RepTiming
	var jobStart time.Time
	if opts.OnTiming != nil {
		timings = make([]RepTiming, n)
		jobStart = time.Now()
	}
	err := p.dispatch(ctx, lo, n,
		func(i, w int) {
			var start time.Time
			if timings != nil {
				start = time.Now()
			}
			rec := job.New(seeds[i])()
			rec.Job, rec.Rep, rec.Seed = job.Name, i, seeds[i]
			recs[i] = rec
			if timings != nil {
				timings[i] = RepTiming{
					Rep: i, Worker: w,
					QueueWait: start.Sub(jobStart),
					Exec:      time.Since(start),
				}
			}
		},
		func(i int) error {
			comp[i] = true
			if opts.OnTiming != nil {
				opts.OnTiming(timings[i])
			}
			return advance()
		})
	if err != nil {
		return recs[:flush], err
	}
	return recs, nil
}

// Agg is the in-memory aggregate of a job's records: success counts for
// Wilson intervals and the rounds sample for mean/std/quantiles.
type Agg struct {
	// N is the number of aggregated records.
	N int
	// Wins is the number of records with Success set.
	Wins int

	rounds []float64
}

// Aggregate folds a record slice into an Agg.
func Aggregate(recs []Record) *Agg {
	a := &Agg{}
	for _, rec := range recs {
		a.Add(rec)
	}
	return a
}

// Add folds one record into the aggregate.
func (a *Agg) Add(rec Record) {
	a.N++
	if rec.Success {
		a.Wins++
	}
	a.rounds = append(a.rounds, float64(rec.Rounds))
}

// SuccessRate returns Wins/N. It panics on an empty aggregate.
func (a *Agg) SuccessRate() float64 {
	if a.N == 0 {
		panic("mc: SuccessRate on empty aggregate")
	}
	return float64(a.Wins) / float64(a.N)
}

// Wilson returns the Wilson score interval for the success proportion at
// confidence z (1.96 for 95%).
func (a *Agg) Wilson(z float64) (lo, hi float64) {
	return stats.WilsonInterval(a.Wins, a.N, z)
}

// Rounds summarizes the rounds sample (mean, std, median, quartiles).
func (a *Agg) Rounds() stats.Summary {
	return stats.Summarize(a.rounds)
}
