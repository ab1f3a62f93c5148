package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"sync/atomic"
	"time"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/rng"
)

// clique-grid: many short replicates of the count-based clique engines on
// a two-worker mc.Pool, every record encoded through mc.AppendRecord into
// a buffered file (the cmd/sweep -format jsonl cell path). dist, core.Run
// bookkeeping, mc scheduling and record encoding do almost all the work;
// the agent-level engines, topo and the service do none.

const (
	cliqueN         = 100_000_000
	cliqueWorkers   = 2
	cliqueMaxRounds = 100_000
)

type cliqueCell struct {
	name      string
	k         int
	undecided bool // UndecidedExact instead of the multinomial 3-majority engine
	reps      int
}

// cliqueCells mixes cheap and expensive replicates: k sets both the cost
// of a round (O(k) binomial draws) and the number of rounds.
var cliqueCells = []cliqueCell{
	{"k8-3majority", 8, false, 8000},
	{"k64-3majority", 64, false, 1600},
	{"k512-3majority", 512, false, 160},
	{"k64-undecided", 64, true, 500},
}

// cliqueJob is one cell compiled for a seed.
type cliqueJob struct {
	cell cliqueCell
	bias int64
	seed uint64
	// Accumulated over traced passes.
	steps, stepNs atomic.Int64
}

type cliqueBench struct {
	pool *mc.Pool
	dir  string
	f    *os.File // the record file, created by prepare
	jobs []*cliqueJob

	// Accumulated over traced passes.
	coreNs         atomic.Int64
	slotNs, execNs int64 // cell wall × workers; Σ replicate exec
	busyNs, reps   int64
	encodeNs       int64
	queueWaitUs    []float64
}

func setupClique(o opts) (instance, error) {
	b := &cliqueBench{pool: mc.NewPool(cliqueWorkers), dir: o.dir}
	for _, c := range cliqueCells {
		if o.smoke {
			c.reps = max(c.reps/200, 2)
		}
		b.jobs = append(b.jobs, &cliqueJob{cell: c, bias: core.Corollary1Bias(cliqueN, c.k, 1.0), seed: deriveSeed(o.seed, c.name)})
	}
	return b, nil
}

// prepare creates the record file. Set-up leaves it out: creating a file
// took 0.1 ms or 0.7 ms depending on the filesystem's state, which would
// decide the clique grid's set-up time.
func (b *cliqueBench) prepare() (passStats, error) {
	var err error
	b.f, err = os.CreateTemp(b.dir, "records-*.jsonl")
	return passStats{}, err
}

func (b *cliqueBench) close() {
	b.pool.Close()
	if b.f != nil {
		b.f.Close()
	}
}

func (b *cliqueBench) pass(tr *tracer) (passStats, error) {
	var st passStats
	if err := b.f.Truncate(0); err != nil {
		return st, err
	}
	if _, err := b.f.Seek(0, io.SeekStart); err != nil {
		return st, err
	}
	bw := bufio.NewWriterSize(b.f, 64<<10)
	digest := sha256.New()
	out := io.MultiWriter(bw, digest)
	for _, j := range b.jobs {
		if err := b.runCell(tr, j, out, digest, &st); err != nil {
			return st, err
		}
	}
	if err := bw.Flush(); err != nil {
		return st, err
	}
	digest.Sum(st.digest[:0])
	return st, nil
}

// runCell runs one grid cell as an mc.Job, encoding its records to out and
// folding its final configurations into digest.
func (b *cliqueBench) runCell(tr *tracer, j *cliqueJob, out io.Writer, digest hash.Hash, st *passStats) error {
	c := j.cell
	// finals is the sum of the replicates' hashFinal values: replicates
	// finish in any order, and a sum does not depend on it.
	var finals atomic.Uint64
	var cellSpan *active
	var busy0 int64
	if tr != nil {
		cellSpan = tr.begin("mc", c.name, tr.root)
		busy0 = sumDurations(b.pool.WorkerBusy())
	}
	start := time.Now()
	job := mc.Job{
		Name:       fmt.Sprintf("%s/n=%d/k=%d", c.name, int64(cliqueN), c.k),
		Seed:       j.seed,
		Replicates: c.reps,
		MaxRounds:  cliqueMaxRounds,
		New: func(seed uint64) mc.Run {
			return func() mc.Record {
				init := colorcfg.Biased(cliqueN, c.k, j.bias)
				var e engine.Engine
				if c.undecided {
					e = engine.NewUndecidedExact(init)
				} else {
					e = engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
				}
				ro := core.Options{MaxRounds: cliqueMaxRounds, Rand: rng.New(seed)}
				var res core.Result
				if tr == nil {
					res = core.Run(e, ro)
				} else {
					ob := &stepObserver{}
					ro.Observer = ob
					sp := tr.begin("core", "run", cellSpan)
					res = core.Run(e, ro)
					tr.end(sp, map[string]any{"rounds": res.Rounds, "engine.steps": ob.steps, "engine.step_ns": ob.ns})
					b.coreNs.Add(sp.s.End - sp.s.Start)
					j.steps.Add(ob.steps)
					j.stepNs.Add(ob.ns)
				}
				finals.Add(hashFinal(seed, res.Final))
				return mc.Record{Rounds: res.Rounds, Success: res.WonInitialPlurality}
			}
		},
	}
	var encodeNs, execNs int64
	ro := mc.RunOpts{Sink: func(rec mc.Record) error {
		st.ops++
		st.rounds += int64(rec.Rounds)
		if !rec.Success {
			st.failed++
		}
		if tr == nil {
			return mc.AppendRecord(out, rec)
		}
		t := time.Now()
		err := mc.AppendRecord(out, rec)
		encodeNs += int64(time.Since(t))
		return err
	}}
	// A replicate's latency is its execution time on a worker.
	ro.OnTiming = func(t mc.RepTiming) {
		st.latMs = append(st.latMs, float64(t.Exec.Nanoseconds())/1e6)
		if tr != nil {
			execNs += int64(t.Exec)
			b.queueWaitUs = append(b.queueWaitUs, float64(t.QueueWait)/1e3)
		}
	}
	if _, err := b.pool.Run(context.Background(), job, ro); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], finals.Load())
	digest.Write(buf[:])
	if tr != nil {
		wall := int64(time.Since(start))
		busy := sumDurations(b.pool.WorkerBusy()) - busy0
		tr.end(cellSpan, map[string]any{"reps": c.reps, "worker_busy_ns": busy, "encode_ns": encodeNs})
		b.slotNs += wall * cliqueWorkers
		b.busyNs += busy
		b.execNs += execNs
		b.reps += int64(c.reps)
		b.encodeNs += encodeNs
	}
	return nil
}

func (b *cliqueBench) layers(m map[string]float64) {
	var steps, stepNs int64
	for _, j := range b.jobs {
		s, ns := j.steps.Load(), j.stepNs.Load()
		steps += s
		stepNs += ns
		if s > 0 {
			m["engine.step_us."+j.cell.name] = float64(ns) / float64(s) / 1e3
		}
	}
	if steps > 0 {
		m["core.overhead_ns_per_round"] = float64(b.coreNs.Load()-stepNs) / float64(steps)
	}
	if b.slotNs > 0 {
		m["mc.worker_busy_share"] = float64(b.busyNs) / float64(b.slotNs)
		m["mc.overhead_ns_per_rep"] = float64(b.slotNs-b.execNs) / float64(b.reps)
	}
	m["mc.queue_wait_p50_us"] = median(b.queueWaitUs)
	if b.reps > 0 {
		m["encode.ns_per_record"] = float64(b.encodeNs) / float64(b.reps)
	}
	// Kernel probes with the grid's own parameters: the k=64 cell's
	// initial configuration at n=10⁸.
	init := colorcfg.Biased(cliqueN, 64, core.Corollary1Bias(cliqueN, 64, 1.0))
	m["dist.multinomial_ns"], m["dist.binomial_ns"] = probeCountKernels(init)
}

// probeCountKernels times dist.Multinomial over the configuration's color
// shares and dist.Binomial at its first conditional probability, in ns per
// call.
func probeCountKernels(c colorcfg.Config) (multinomialNs, binomialNs float64) {
	n := c.N()
	probs := make([]float64, len(c))
	for i, v := range c {
		probs[i] = float64(v) / float64(n)
	}
	out := make([]int64, len(c))
	r := rng.New(1)
	multinomialNs = probe(func() { dist.Multinomial(r, n, probs, out) })
	binomialNs = probe(func() { dist.Binomial(r, n, probs[0]) })
	return multinomialNs, binomialNs
}

// probe reports f's mean time in ns over about 100 ms of calls.
func probe(f func()) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i := 0; i < 64; i++ {
			f()
		}
		calls += 64
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// deriveSeed gives each named part of a workload its own seed, a pure
// function of the run's seed and the name.
func deriveSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rng.New(seed ^ h.Sum64()).Uint64()
}

// hashFinal is an FNV-1a hash of a replicate's seed and final counts.
func hashFinal(seed uint64, c colorcfg.Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	for _, v := range c {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func sumDurations(ds []time.Duration) int64 {
	var s int64
	for _, d := range ds {
		s += int64(d)
	}
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
