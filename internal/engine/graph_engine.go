package engine

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// GraphEngine is the literal agent-array engine: every vertex of an
// arbitrary topology holds a color; each round every vertex samples h
// neighbors (uniformly, with repetitions) and applies the rule.
// The update is synchronous (double-buffered). On topo.Complete with
// IncludeSelf it realizes exactly the paper's model and is used to
// cross-validate the configuration-level clique engines.
//
// The engine consumes its topology through topo.NeighborSource — the
// minimal sampling surface shared by implicit graphs (neighbors computed
// functionally, zero materialization), in-RAM CSRs, and mmap-backed CSRs.
// Every source honors the same rng byte contract (one Int63n(degree) per
// sample, none for an isolated vertex), so swapping a graph's
// representation never perturbs a seeded run; only memory residency
// changes. That is what takes sparse runs past RAM: implicit torus to
// n = 10⁹, mmap smallworld to n = 10⁸.
//
// Vertices are cut into fixed blocks that worker goroutines claim each
// round, and each block draws from streams keyed by (seed, round, block)
// (see graphLoop), so a run is deterministic for a fixed seed at any
// worker count. The goroutines are persistent (workerPool), so a
// steady-state Step performs zero allocations; Close stops them
// explicitly, and a GC cleanup reaps them when the engine is abandoned.
//
// On the paper's clique (Complete with IncludeSelf) a uniformly sampled
// neighbor's color is exactly an i.i.d. draw from the color distribution
// c/n, so the engine takes a fast path: workers draw sample batches from an
// alias table over the configuration (dist.Alias.SampleMany) instead of
// chasing random vertex indices through the n-sized color array. The
// processes are identical in distribution; the fast path just trades n
// random memory reads per round for k-sized table lookups.
//
// Every other topology runs one of the two-pass loops described at
// graphLoop: draw a block of neighbor ids, then gather their colors and
// apply the rule. On a regular in-RAM CSR the block's draws are made and
// resolved in one register-resident rng loop; on a topo.UniformDegree
// source (the implicit torus, cycle and hypercube, or an mmap CSR) they
// come from one dist.FillUniform call. Both are byte-identical to the
// per-sample draws. With
// first-sample 3-majority, every row applies the rule in one inlined pass
// instead of a rule.Apply call per agent.
//
// Repaint recolors the first m vertices (in vertex order) that hold
// `from`.
type GraphEngine struct {
	counts
	crew
	rule dynamics.Rule
	src  topo.NeighborSource
	bufs *graphBuffers
}

// graphBuffers holds the double-buffered vertex color arrays. They live in
// a separate allocation so pool goroutines can reference them (the buffers
// swap every round) without pinning the engine itself.
type graphBuffers struct {
	colors []Color
	next   []Color
}

// graphLoop is the agent loop of CliqueSampled and GraphEngine: its block
// schedule, and everything the worker rows need, resolved once at
// construction. It lives in its own allocation (like graphBuffers) so pool
// goroutines never capture the engine itself.
//
// Agents [0, n) are cut into blocks of blockLen agents, a length that
// depends on the rule's sample size h alone. Each round, workers claim
// block indices from the claimed counter, and a worker seeds two streams
// per block from (seed, round, block): one for the block's neighbor or
// alias draws and one for its rule.Apply calls. A block's draws therefore
// depend neither on which worker runs it nor on how many there are, so a
// run is a pure function of its seed, and a whole block can be drawn
// before the rule runs, whatever the rule. Dispatch order in
// graphWorker.run:
//
//	alias != nil   → clique row: one block of alias draws, then the rule
//	offsets != nil → flat row: fill a block of neighbor ids in one tight
//	                 rng loop (degree-bucketed when unifDeg > 0), then
//	                 gather colors and apply the rule, so the random
//	                 color reads pipeline instead of serializing behind
//	                 the rule
//	otherwise      → generic row: the same two passes through the source,
//	                 one FillUniform and one topo.BlockResolver call per
//	                 block when the degree is uniform (resolve != nil),
//	                 else one SampleNeighbor call per sample
//
// On every row, fast3 replaces the rule's Apply calls with one inlined
// 3-majority pass over the block.
type graphLoop struct {
	claimed  atomic.Int64 // blocks claimed so far this round
	round    uint64       // the round being computed (0-based)
	seed     uint64
	n        int64
	blockLen int64

	src  topo.NeighborSource
	rule dynamics.Rule
	// bufs is the graph engine's agent array; nil for CliqueSampled,
	// which only tallies.
	bufs *graphBuffers
	// alias is non-nil only on the clique row.
	alias *dist.Alias
	// offsets/neighbors are non-nil only when src is an in-RAM *topo.CSR;
	// the workers then index its arrays directly.
	offsets   []int64
	neighbors []int32
	h         int
	// unifDeg, when positive, promises every vertex has exactly this
	// degree (from the topo.UniformDegree hint or a one-time offsets
	// scan); the flat row (fillFlatUniform) and the generic row (one
	// dist.FillUniform) then hoist the degree load, the zero-degree
	// branch and the rejection threshold out of the rng loop.
	unifDeg int64
	// resolve is non-nil only on the generic row of a uniform-degree
	// source: it turns the block's draws into neighbor ids in one call
	// (topo.Resolver).
	resolve topo.BlockResolver
	// fast3 replaces rule.Apply with the inlined first-sample 3-majority
	// (majority3, with no interface call) on every row: applyMajority3 on
	// the clique row, applyFused3 on the others. Set only for
	// dynamics.ThreeMajority without UniformTie, whose Apply it
	// replicates exactly and which never draws from the rule stream.
	fast3 bool
}

type graphWorker struct {
	draw  rng.Rand // the current block's neighbor/alias stream
	rule  rng.Rand // the current block's rule.Apply stream
	tally []int64  // cache-line padded; see paddedTallies
	buf   []Color  // one block of sampled colors
	idx   []int64  // non-clique rows: one block of sampled vertex ids
}

// NewGraphEngine builds the engine over any topo.NeighborSource. The
// initial configuration is laid out over the vertices in color blocks and
// then shuffled with layoutRng so that topology experiments are not biased
// by block placement (on the clique the layout is irrelevant). seed keys
// the per-block streams; workers <= 1 runs single-threaded, and the
// worker count never changes the run.
func NewGraphEngine(rule dynamics.Rule, src topo.NeighborSource, initial colorcfg.Config, workers int, seed uint64, layoutRng *rng.Rand) *GraphEngine {
	n := src.N()
	if initial.N() != n {
		panic(fmt.Sprintf("engine: configuration has %d agents but graph has %d vertices", initial.N(), n))
	}
	h := rule.SampleSize()
	if h < 1 {
		panic("engine: rule sample size must be >= 1")
	}
	e := &GraphEngine{
		counts: newCounts(initial),
		rule:   rule,
		src:    src,
		bufs: &graphBuffers{
			colors: initial.ToAgents(nil),
			next:   make([]Color, n),
		},
	}
	if layoutRng != nil {
		rng.Shuffle(layoutRng, e.bufs.colors)
	}
	lp := &graphLoop{seed: seed, n: n, src: src, rule: rule, bufs: e.bufs, h: h}
	if c, ok := src.(topo.Complete); ok && c.IncludeSelf {
		lp.alias = dist.NewAliasCounts(initial)
	} else {
		if csr, ok := src.(*topo.CSR); ok {
			lp.offsets, lp.neighbors = csr.Offsets, csr.Neighbors
		}
		if ud, ok := src.(topo.UniformDegree); ok {
			lp.unifDeg = ud.UniformDegree()
		} else if lp.offsets != nil {
			lp.unifDeg = uniformFlatDegree(lp.offsets)
		}
		if lp.offsets == nil && lp.unifDeg > 0 {
			lp.resolve = topo.Resolver(src)
		}
	}
	e.crew = newCrew(e, lp, workers, initial.K())
	return e
}

// uniformFlatDegree reports the common row width when every row of the
// offset array has the same positive width, else 0. The one sequential
// sweep at construction buys the bucketed hot loop for in-RAM CSRs, which
// carry no topo.UniformDegree hint (generated regular:D graphs,
// materialized tori).
func uniformFlatDegree(offsets []int64) int64 {
	n := len(offsets) - 1
	if n < 1 {
		return 0
	}
	d := offsets[1] - offsets[0]
	if d == 0 {
		return 0
	}
	for v := 1; v < n; v++ {
		if offsets[v+1]-offsets[v] != d {
			return 0
		}
	}
	return d
}

// Close stops the worker goroutines of a multi-worker engine. The engine
// must not be stepped afterwards. Optional: an unreachable engine's workers
// are stopped by a GC cleanup.
func (e *GraphEngine) Close() { e.crew.close() }

// Name implements Engine.
func (e *GraphEngine) Name() string {
	return fmt.Sprintf("graph[%s,%s]", e.src.Name(), e.rule.Name())
}

// Colors returns the engine's live per-vertex color slice — a view, not a
// copy. The view is valid only until the next Step: the double-buffer swap
// turns the returned array into the following round's scratch target, so a
// caller holding it across Steps reads half-written data. Read it (or copy
// it out, e.g. with AppendColors) before stepping again; mutate only
// through Repaint.
func (e *GraphEngine) Colors() []Color { return e.bufs.colors }

// AppendColors appends a stable snapshot of the current per-vertex colors
// to dst (which may be nil) and returns the extended slice. Unlike Colors,
// the result is owned by the caller and survives any number of Steps.
func (e *GraphEngine) AppendColors(dst []Color) []Color {
	return append(dst, e.bufs.colors...)
}

// Step implements Engine.
func (e *GraphEngine) Step(_ *rng.Rand) {
	began := e.begin()
	e.crew.step(e.round, e.cfg)
	e.bufs.colors, e.bufs.next = e.bufs.next, e.bufs.colors
	e.end(began)
}

// run claims blocks until the round has none left, seeds the block's two
// streams, and runs the row the engine's plan selects (see graphLoop).
func (w *graphWorker) run(lp *graphLoop) {
	clear(w.tally)
	for {
		b, v0, m, ok := lp.claim()
		if !ok {
			return
		}
		w.draw.SeedStream(lp.seed, lp.round, uint64(2*b))
		w.rule.SeedStream(lp.seed, lp.round, uint64(2*b+1))
		switch {
		case lp.alias != nil:
			w.runClique(lp, v0, m)
		case lp.offsets != nil:
			w.runFlat(lp, v0, m)
		default:
			w.runGeneric(lp, v0, m)
		}
	}
}

// runClique is the clique row of both CliqueSampled and the graph
// engine's complete+self fast path: the block's agents draw h i.i.d.
// colors each from the alias table in one SampleMany call, which
// amortizes per-draw call overhead, and apply the rule.
func (w *graphWorker) runClique(lp *graphLoop, v0, m int64) {
	buf := w.buf[:m*int64(lp.h)]
	lp.alias.SampleMany(&w.draw, buf)
	var next []Color
	if lp.bufs != nil {
		next = lp.bufs.next
	}
	if lp.fast3 {
		w.applyMajority3(buf, next, v0, m)
		return
	}
	w.applyBlock(lp, buf, next, v0, m)
}

// runFlat is the sparse hot loop: pass 1 fills the block's index buffer
// with one resolved neighbor id per sample in a tight rng loop, then
// pass 2 gathers colors and applies the rule. Splitting the passes lets
// the out-of-order core overlap the block's random color-array reads —
// the dominant cache misses at n >= 10⁷ — instead of serializing them
// behind each vertex's rule application.
func (w *graphWorker) runFlat(lp *graphLoop, v0, m int64) {
	idx := w.idx[:m*int64(lp.h)]
	if lp.unifDeg > 0 {
		w.fillFlatUniform(lp, idx, v0, m)
	} else {
		w.fillFlatExact(lp, idx, v0, m)
	}
	w.gatherApply(lp, idx, v0, m)
}

// fillFlatUniform is pass 1 of the flat row on a uniform-degree CSR: it
// draws each sample and resolves it to a neighbor id in the same step,
// consuming the rng exactly as one FillUniform(d) over the block (one
// Int63n(d) per sample) would. Uniform degree means offsets is an
// arithmetic sequence, so the row walk steps lo by d instead of streaming
// the offsets array, and the rejection threshold is computed once per
// block. The generator is stepped as a register copy (rng.Rand.Next).
func (w *graphWorker) fillFlatUniform(lp *graphLoop, idx []int64, v0, m int64) {
	h, d, neighbors := lp.h, lp.unifDeg, lp.neighbors
	ud := uint64(d)
	thresh := -ud % ud
	g := w.draw
	p := 0
	for lo, end := lp.offsets[v0], lp.offsets[v0+m]; lo < end; lo += d {
		for range h {
			var x uint64
			x, g = g.Next()
			hi, l := bits.Mul64(x, ud)
			for l < thresh {
				x, g = g.Next()
				hi, l = bits.Mul64(x, ud)
			}
			idx[p] = int64(neighbors[lo+int64(hi)])
			p++
		}
	}
	w.draw = g
}

// fillFlatExact fills idx with one resolved neighbor id per sample for
// vertices [v0, v0+m) of a flat source with varying degrees, consuming the
// rng exactly like SampleNeighbor: one Int63n(degree) per draw (the
// inlined Lemire multiply-shift below is rng.Uint64n verbatim, with the
// rejection threshold hoisted per vertex), none for an isolated vertex,
// which samples itself. The generator is stepped as a register copy
// (rng.Rand.Next).
func (w *graphWorker) fillFlatExact(lp *graphLoop, idx []int64, v0, m int64) {
	h := lp.h
	offsets, neighbors := lp.offsets, lp.neighbors
	g := w.draw
	p := 0
	for v := v0; v < v0+m; v++ {
		lo := offsets[v]
		d := uint64(offsets[v+1] - lo)
		if d == 0 {
			for s := 0; s < h; s++ {
				idx[p] = v
				p++
			}
			continue
		}
		thresh := -d % d
		for s := 0; s < h; s++ {
			var x uint64
			x, g = g.Next()
			hi, lo2 := bits.Mul64(x, d)
			for lo2 < thresh {
				x, g = g.Next()
				hi, lo2 = bits.Mul64(x, d)
			}
			idx[p] = int64(neighbors[lo+int64(hi)])
			p++
		}
	}
	w.draw = g
}

// runGeneric is the two-pass loop for non-flat sources (implicit
// families, mmap CSRs, opaque graphs): pass 1 fills the index buffer with
// sampled neighbor ids, pass 2 gathers colors and applies the rule. On a
// uniform-degree source pass 1 is one FillUniform over the block, which
// consumes the rng exactly as the SampleNeighbor calls would (one
// Int63n(degree) per sample), and one ResolveBlock call; otherwise it is
// one SampleNeighbor call per sample.
func (w *graphWorker) runGeneric(lp *graphLoop, v0, m int64) {
	h := lp.h
	idx := w.idx[:m*int64(h)]
	if lp.resolve != nil {
		dist.FillUniform(&w.draw, lp.unifDeg, idx)
		lp.resolve.ResolveBlock(v0, h, idx)
	} else {
		src, r := lp.src, &w.draw
		p := 0
		for v := v0; v < v0+m; v++ {
			for s := 0; s < h; s++ {
				idx[p] = src.SampleNeighbor(v, r)
				p++
			}
		}
	}
	w.gatherApply(lp, idx, v0, m)
}

// gatherApply is pass 2 of the flat and generic rows: it resolves the
// block's sampled vertex ids to colors and applies the rule.
func (w *graphWorker) gatherApply(lp *graphLoop, idx []int64, v0, m int64) {
	colors, next := lp.bufs.colors, lp.bufs.next
	if lp.fast3 {
		w.applyFused3(colors, next, idx, v0, m)
		return
	}
	buf := w.buf[:len(idx)]
	for i, u := range idx {
		buf[i] = colors[u]
	}
	w.applyBlock(lp, buf, next, v0, m)
}

// majority3 is first-sample 3-majority on one sample triple: "if s1 == s2
// adopt s1, else adopt s0" (when s0 matches either other sample both
// branches return the same color), the color ThreeMajority.Apply picks
// for every triple. It selects with a mask rather than the branch Go
// keeps for "if y == z { x = y }" when x then indexes the tally: on a
// mid-run block y == z goes either way at random. eq is all ones exactly
// when y^z is 0, for any two int32 colors.
func majority3(x, y, z Color) Color {
	eq := Color((int64(uint32(y^z)) - 1) >> 63)
	return x ^ (x^y)&eq
}

// applyFused3 gathers a block's colors and applies majority3 in one pass.
// Its mask measured faster than the branch here too, on the 8-regular CSR
// at n = 2¹⁸, 10⁶ and 10⁷ (DESIGN §12). (A split gather-then-apply
// variant was measured slower: the extra buffer pass costs more than the
// denser load window buys.)
func (w *graphWorker) applyFused3(colors, next []Color, idx []int64, v0, m int64) {
	tally := w.tally
	p := 0
	for i := int64(0); i < m; i++ {
		x := majority3(colors[idx[p]], colors[idx[p+1]], colors[idx[p+2]])
		p += 3
		next[v0+i] = x
		tally[x]++
	}
}

// applyMajority3 is the clique row's fast3 pass: majority3 over each
// sample triple of buf, one pass that writes next[v0:v0+m] when next is
// non-nil (the graph engine's agent array) and tallies.
func (w *graphWorker) applyMajority3(buf, next []Color, v0, m int64) {
	tally := w.tally
	for i := int64(0); i < m; i++ {
		x := majority3(buf[3*i], buf[3*i+1], buf[3*i+2])
		if next != nil {
			next[v0+i] = x
		}
		tally[x]++
	}
}

// applyBlock applies the rule, on the block's rule stream, to each
// h-sample group of buf, writing the worker tally and, when next is
// non-nil (the graph engine's agent array), next[v0:v0+m].
func (w *graphWorker) applyBlock(lp *graphLoop, buf []Color, next []Color, v0, m int64) {
	h := lp.h
	p := 0
	for i := int64(0); i < m; i++ {
		c := lp.rule.Apply(buf[p:p+h], &w.rule)
		p += h
		if next != nil {
			next[v0+i] = c
		}
		w.tally[c]++
	}
}

// Repaint implements Engine.
func (e *GraphEngine) Repaint(from, to Color, m int64) int64 {
	return e.repaintAgents(e.bufs.colors, from, to, m)
}
