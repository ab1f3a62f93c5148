package engine

import (
	"fmt"
	"slices"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dist"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// fillFlatUniformRef is pass 1 of the flat row on a uniform-degree CSR in
// two passes: one dist.FillUniform over the block, then a sweep resolving
// each draw through the lo += d row walk. It is kept, test-only, as the
// reference fillFlatUniform, which draws and resolves in one pass, must
// reproduce. Do not edit it.
func (w *graphWorker) fillFlatUniformRef(lp *graphLoop, idx []int64, v0, m int64) {
	h, d := lp.h, lp.unifDeg
	dist.FillUniform(&w.draw, d, idx)
	neighbors := lp.neighbors
	p := 0
	for lo, end := lp.offsets[v0], lp.offsets[v0+m]; lo < end; lo += d {
		row := neighbors[lo : lo+d]
		for s := 0; s < h; s++ {
			idx[p] = int64(row[idx[p]])
			p++
		}
	}
}

// stepFlatRef computes e's next round as Step does on one worker, block
// by block with the same streams, but with fillFlatUniformRef as pass 1.
// e must be a single-worker engine on the flat uniform-degree row.
func stepFlatRef(e *GraphEngine) {
	lp, w := e.lp, e.crew.workers[0]
	lp.round = uint64(e.round)
	clear(w.tally)
	for b := int64(0); b*lp.blockLen < lp.n; b++ {
		v0 := b * lp.blockLen
		m := min(lp.blockLen, lp.n-v0)
		w.draw.SeedStream(lp.seed, lp.round, uint64(2*b))
		w.rule.SeedStream(lp.seed, lp.round, uint64(2*b+1))
		idx := w.idx[:m*int64(lp.h)]
		w.fillFlatUniformRef(lp, idx, v0, m)
		w.gatherApply(lp, idx, v0, m)
	}
	copy(e.cfg, w.tally)
	e.bufs.colors, e.bufs.next = e.bufs.next, e.bufs.colors
	e.round++
}

// TestFlatUniformMatchesTwoPass pins the flat row's one-pass draw and
// resolve to the two passes (fillFlatUniformRef): stepped from one seed,
// the engine and the reference go through equal configurations and
// per-vertex colors every round. d = 8 has rejection threshold 0; d = 6
// and 7 have thresholds 4 and 2 (-d % d), so the rejection test is live
// there, though a draw is rejected with probability below 2⁻⁶¹. n = 4900
// is 14 blocks of 341 agents and a partial block of 126. The rules cover
// the fused 3-majority pass and the rule.Apply path with its own stream.
func TestFlatUniformMatchesTwoPass(t *testing.T) {
	const n, rounds = 4900, 12
	init := colorcfg.Biased(n, 5, n/10)
	for _, d := range []int64{8, 6, 7} {
		g := topo.RandomRegular(fmt.Sprintf("regular:%d", d), n, d, rng.New(uint64(30+d)))
		for _, name := range []string{"3majority", "3majority-utie"} {
			rule, err := dynamics.ParseRule(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				e := NewGraphEngine(rule, g, init, workers, 91, rng.New(5))
				ref := NewGraphEngine(rule, g, init, 1, 91, rng.New(5))
				if e.lp.offsets == nil || e.lp.unifDeg != d {
					t.Fatalf("d=%d: engine is not on the flat uniform-degree row", d)
				}
				for round := 1; round <= rounds; round++ {
					e.Step(nil)
					stepFlatRef(ref)
					if !e.Config().Equal(ref.Config()) {
						t.Fatalf("d=%d %s w=%d round %d: config %v, two-pass %v", d, name, workers, round, e.Config(), ref.Config())
					}
					if !slices.Equal(e.Colors(), ref.Colors()) {
						t.Fatalf("d=%d %s w=%d round %d: per-vertex colors differ from the two-pass", d, name, workers, round)
					}
				}
				e.Close()
				ref.Close()
			}
		}
	}
}
