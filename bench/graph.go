package main

import (
	"crypto/sha256"
	"encoding/binary"
	"time"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// graph-grid: agent-level engines with few long replicates, run one after
// another at two engine workers. There is one cell per GraphEngine
// dispatch row (flat batched, flat serial, generic batched, generic
// serial, clique alias) plus CliqueSampled, all at the same n so every
// round touches the same number of agents. engine.Step and topo do almost
// all the work; core and mc do almost none. The torus cells run a fixed
// number of rounds because a torus does not reach consensus in practical
// time.

const (
	graphN = 1 << 18
	graphK = 8
	// graphWorkers is 1 because at two workers the round time of the
	// rng-consuming (utie) cells varied by up to 8x from pass to pass on a
	// 2-vCPU host, which no bound could absorb;
	// engine.scaling_w2_over_w1 reports the two-worker speed-up instead.
	graphWorkers   = 1
	graphMaxRounds = 10_000
)

type graphCell struct {
	name   string
	source string // "regular" (CSR), "torus" (implicit), "complete" (implicit), "sampled" (CliqueSampled)
	utie   bool   // 3-majority with uniform tie-breaking: consumes rng, so the serial loops run
	rounds int    // fixed round count; 0 runs to consensus
	reps   int
}

var graphCells = []graphCell{
	{"regular8-3majority", "regular", false, 0, 1},
	{"regular8-3majority-utie", "regular", true, 4, 1},
	{"torus2-3majority", "torus", false, 6, 1},
	{"torus2-3majority-utie", "torus", true, 3, 1},
	{"complete-3majority", "complete", false, 0, 1},
	{"sampled-3majority", "sampled", false, 0, 1},
}

type graphBench struct {
	seed    uint64
	bias    int64
	sources map[string]topo.NeighborSource
	buildS  float64

	// Accumulated over traced passes, per cell.
	steps, stepNs, coreNs map[string]int64
}

func setupGraph(o opts) (instance, error) {
	b := &graphBench{
		seed:    o.seed,
		sources: map[string]topo.NeighborSource{},
		steps:   map[string]int64{}, stepNs: map[string]int64{}, coreNs: map[string]int64{},
	}
	n := int64(graphN)
	if o.smoke {
		n = 1 << 12
	}
	t := time.Now()
	regular, err := topo.BuildSource("regular:8", n, rng.New(deriveSeed(o.seed, "regular:8")), topo.BuildOpts{})
	if err != nil {
		return nil, err
	}
	b.buildS = time.Since(t).Seconds()
	b.sources["regular"] = regular
	for _, spec := range []string{"torus", "complete"} {
		if b.sources[spec], err = topo.BuildSource(spec, n, nil, topo.BuildOpts{}); err != nil {
			return nil, err
		}
	}
	b.bias = core.Corollary1Bias(n, graphK, 1.0)
	return b, nil
}

func (b *graphBench) prepare() (passStats, error) { return passStats{}, nil }
func (b *graphBench) close()                      {}

// newEngine builds a cell's engine the way cmd/plurality does: the
// engine seed and the layout shuffle draw from the replicate's generator.
func (b *graphBench) newEngine(c graphCell, r *rng.Rand, workers int) engine.Engine {
	src := b.sources["complete"]
	n := src.N()
	init := colorcfg.Biased(n, graphK, b.bias)
	rule := dynamics.ThreeMajority{UniformTie: c.utie}
	if c.source == "sampled" {
		return engine.NewCliqueSampled(rule, init, workers, r.Uint64())
	}
	return engine.NewGraphEngine(rule, b.sources[c.source], init, workers, r.Uint64(), r)
}

func (b *graphBench) pass(tr *tracer) (passStats, error) {
	var st passStats
	digest := sha256.New()
	for _, c := range graphCells {
		for rep, seed := range mc.RepSeeds(deriveSeed(b.seed, c.name), c.reps) {
			r := rng.New(seed)
			e := b.newEngine(c, r, graphWorkers)
			n := e.N()
			// The stop condition runs once before the first round and once
			// after every round, which makes it the per-round clock.
			var last time.Time
			inner := core.WhenMonochromatic()
			maxRounds := graphMaxRounds
			if c.rounds > 0 {
				inner = func(colorcfg.Config, int) bool { return false }
				maxRounds = c.rounds
			}
			ro := core.Options{MaxRounds: maxRounds, Rand: r, Stop: func(cfg colorcfg.Config, round int) bool {
				now := time.Now()
				if round > 0 {
					st.latMs = append(st.latMs, float64(now.Sub(last).Nanoseconds())/1e6)
				}
				last = now
				return inner(cfg, round)
			}}
			var res core.Result
			if tr == nil {
				res = core.Run(e, ro)
			} else {
				ob := &stepObserver{}
				ro.Observer = ob
				sp := tr.begin("core", c.name, tr.root)
				res = core.Run(e, ro)
				tr.end(sp, map[string]any{"rounds": res.Rounds, "n": n, "engine.steps": ob.steps, "engine.step_ns": ob.ns})
				b.steps[c.name] += ob.steps
				b.stepNs[c.name] += ob.ns
				b.coreNs[c.name] += sp.s.End - sp.s.Start
			}
			e.Close()
			st.ops += int64(res.Rounds)
			st.rounds += int64(res.Rounds)
			ok := res.WonInitialPlurality
			if c.rounds > 0 {
				ok = res.Rounds == c.rounds && res.Final.N() == n
			}
			if !ok {
				st.failed++
			}
			if err := mc.AppendRecord(digest, mc.Record{Job: c.name, Rep: rep, Seed: seed, Rounds: res.Rounds, Success: res.WonInitialPlurality}); err != nil {
				return st, err
			}
			var buf [8]byte
			for _, v := range res.Final {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				digest.Write(buf[:])
			}
		}
	}
	digest.Sum(st.digest[:0])
	return st, nil
}

func (b *graphBench) layers(m map[string]float64) {
	n := float64(b.sources["complete"].N())
	var steps, stepNs, coreNs int64
	for _, c := range graphCells {
		if s := b.steps[c.name]; s > 0 {
			m["engine.step_ns_per_agent."+c.name] = float64(b.stepNs[c.name]) / float64(s) / n
		}
		steps += b.steps[c.name]
		stepNs += b.stepNs[c.name]
		coreNs += b.coreNs[c.name]
	}
	if steps > 0 {
		m["core.overhead_ns_per_round"] = float64(coreNs-stepNs) / float64(steps)
	}
	m["topo.build_s"] = b.buildS
	m["engine.scaling_w2_over_w1"] = b.stepTime(graphCells[0], 1) / b.stepTime(graphCells[0], 2)

	// Kernel probes with the grid's own parameters: degree-8 neighbor
	// draws in 256-slot blocks, and alias draws over the k=8 start.
	r := rng.New(1)
	idx := make([]int64, 256)
	m["dist.fill_uniform_ns_per_draw"] = probe(func() { dist.FillUniform(r, 8, idx) }) / float64(len(idx))
	alias := dist.NewAliasCounts(colorcfg.Biased(int64(n), graphK, b.bias))
	draws := make([]int32, 256)
	m["dist.alias_ns_per_draw"] = probe(func() { alias.SampleMany(r, draws) }) / float64(len(draws))
}

// stepTime is the median wall time of five rounds of the cell at the
// given engine worker count.
func (b *graphBench) stepTime(c graphCell, workers int) float64 {
	e := b.newEngine(c, rng.New(deriveSeed(b.seed, "scaling")), workers)
	defer e.Close()
	ob := &stepObserver{}
	engine.Observe(e, ob)
	var times []float64
	r := rng.New(1)
	for i := 0; i < 5; i++ {
		before := ob.ns
		e.Step(r)
		times = append(times, float64(ob.ns-before))
	}
	return median(times)
}
