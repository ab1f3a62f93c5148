package engine

import (
	"slices"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

// TestWorkerCountInvariance pins that an agent-level run is a pure
// function of its seed: blocks, not workers, own the rng streams, so every
// worker count steps through byte-identical configurations and per-vertex
// colors, on every row of the agent loop (CliqueSampled and the graph
// engine's clique, flat uniform-degree, flat skewed-degree and generic
// rows) and for rules that draw inside Apply (uniform ties, h-plurality).
func TestWorkerCountInvariance(t *testing.T) {
	const n, rounds = 2744, 12 // 14³, so torus:3 is exact
	regular := topo.RandomRegular("regular:6", n, 6, rng.New(31))
	gnp, err := topo.BuildSource("gnp:0.0007", n, rng.New(41), topo.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	isolated := 0
	for v := int64(0); v < n; v++ {
		if gnp.Degree(v) == 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("gnp graph has no isolated vertex to self-sample")
	}
	torus, err := topo.BuildSource("torus:3", n, nil, topo.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	generic := func(lp *graphLoop) bool { return lp.alias == nil && lp.offsets == nil }
	sources := []struct {
		name string
		src  topo.NeighborSource
		row  func(lp *graphLoop) bool
	}{
		{"complete", topo.NewComplete(n), func(lp *graphLoop) bool { return lp.alias != nil }},
		{"regular6-csr", regular, func(lp *graphLoop) bool { return lp.offsets != nil && lp.unifDeg == 6 }},
		{"gnp-csr", gnp, func(lp *graphLoop) bool { return lp.offsets != nil && lp.unifDeg == 0 }},
		{"opaque-csr", opaqueSource{regular}, generic},
		{"torus3-implicit", torus, generic},
	}
	init := colorcfg.Biased(n, 4, n/8)
	workerCounts := []int{1, 2, 3, 8}
	// stepAll steps every engine through the rounds and requires each
	// round's configuration (and, for the graph engine, per-vertex colors)
	// to equal the first engine's.
	stepAll := func(t *testing.T, engines []Engine) {
		for round := 1; round <= rounds; round++ {
			for i, e := range engines {
				e.Step(nil)
				if ref := engines[0].Config(); !e.Config().Equal(ref) {
					t.Fatalf("round %d: w=%d config %v, w=1 %v", round, workerCounts[i], e.Config(), ref)
				}
				if g, ok := e.(*GraphEngine); ok && !slices.Equal(g.Colors(), engines[0].(*GraphEngine).Colors()) {
					t.Fatalf("round %d: w=%d per-vertex colors differ from w=1", round, workerCounts[i])
				}
			}
		}
		for _, e := range engines {
			e.Close()
		}
	}
	for _, name := range []string{"3majority", "3majority-utie", "hplurality:5"} {
		rule, err := dynamics.ParseRule(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("sampled/"+name, func(t *testing.T) {
			engines := make([]Engine, len(workerCounts))
			for i, w := range workerCounts {
				engines[i] = NewCliqueSampled(rule, init, w, 77)
			}
			stepAll(t, engines)
		})
		for _, s := range sources {
			t.Run(s.name+"/"+name, func(t *testing.T) {
				engines := make([]Engine, len(workerCounts))
				for i, w := range workerCounts {
					g := NewGraphEngine(rule, s.src, init, w, 77, rng.New(5))
					if !s.row(g.lp) {
						t.Fatal("engine did not select the row this case covers")
					}
					engines[i] = g
				}
				stepAll(t, engines)
			})
		}
	}
}

// TestGraphColorsSnapshot pins the Colors/AppendColors contract: Colors is
// a live view invalidated by the next Step (the swap turns it into scratch),
// while AppendColors is a caller-owned snapshot that keeps describing the
// round it was taken at.
func TestGraphColorsSnapshot(t *testing.T) {
	const n, k = 2000, 4
	csr := topo.RandomRegular("regular:6", n, 6, rng.New(31))
	e := NewGraphEngine(dynamics.ThreeMajority{}, csr, colorcfg.Biased(n, k, 300), 2, 77, rng.New(5))
	defer e.Close()
	e.Step(nil)

	cfgBefore := e.Config()
	live := e.Colors()
	snap := e.AppendColors(nil)
	if !slices.Equal(snap, live) {
		t.Fatal("AppendColors disagrees with Colors at the same round")
	}
	e.Step(nil)
	// The snapshot still tallies to the pre-step configuration; the live
	// view now aliases the engine's current buffer.
	if got := colorcfg.FromAgents(snap, k); !got.Equal(cfgBefore) {
		t.Errorf("snapshot drifted after Step: tallies to %v, want %v", got, cfgBefore)
	}
	if got := colorcfg.FromAgents(e.Colors(), k); !got.Equal(e.Config()) {
		t.Errorf("live view out of sync with Config: %v vs %v", got, e.Config())
	}
	// AppendColors appends rather than overwrites.
	both := e.AppendColors(snap)
	if len(both) != 2*n || !slices.Equal(both[:n], snap[:n]) {
		t.Error("AppendColors does not append to dst")
	}
}

// applyOnly forwards to a rule through the bare interface, so the engine
// cannot recognize ThreeMajority and keeps fast3 off.
type applyOnly struct{ dynamics.Rule }

// TestFused3MatchesApply pins the fast3 passes against the interface
// path on every row: CliqueSampled and the graph engine on the complete
// graph (applyMajority3), on a regular CSR (flat row) and on the implicit
// torus (generic row, applyFused3), stepped from one seed with
// ThreeMajority and with a wrapper that forwards to it, go through equal
// configurations and per-vertex colors every round. n = 70² leaves a
// partial last block.
func TestFused3MatchesApply(t *testing.T) {
	const n, rounds = 4900, 15
	init := colorcfg.Biased(n, 6, n/10)
	regular := topo.RandomRegular("regular:6", n, 6, rng.New(31))
	torus := topo.NewTorusD(n, 2)
	for _, workers := range []int{1, 3} {
		build := func(rule dynamics.Rule) []Engine {
			return []Engine{
				NewCliqueSampled(rule, init, workers, 91),
				NewGraphEngine(rule, topo.NewComplete(n), init, workers, 91, rng.New(5)),
				NewGraphEngine(rule, regular, init, workers, 91, rng.New(5)),
				NewGraphEngine(rule, torus, init, workers, 91, rng.New(5)),
			}
		}
		fused, called := build(dynamics.ThreeMajority{}), build(applyOnly{dynamics.ThreeMajority{}})
		for i := range fused {
			if lp, wrapped := loopOf(fused[i]), loopOf(called[i]); !lp.fast3 || wrapped.fast3 {
				t.Fatalf("%s: fast3 %v, wrapper fast3 %v", fused[i].Name(), lp.fast3, wrapped.fast3)
			}
		}
		for round := 1; round <= rounds; round++ {
			for i := range fused {
				f, c := fused[i], called[i]
				f.Step(nil)
				c.Step(nil)
				if !f.Config().Equal(c.Config()) {
					t.Fatalf("w=%d %s round %d: fused config %v, Apply %v", workers, f.Name(), round, f.Config(), c.Config())
				}
				if g, ok := f.(*GraphEngine); ok && !slices.Equal(g.Colors(), c.(*GraphEngine).Colors()) {
					t.Fatalf("w=%d %s round %d: per-vertex colors differ", workers, f.Name(), round)
				}
			}
		}
		for i := range fused {
			fused[i].Close()
			called[i].Close()
		}
	}
}

// loopOf returns an agent-level engine's loop plan.
func loopOf(e Engine) *graphLoop {
	switch e := e.(type) {
	case *CliqueSampled:
		return e.lp
	case *GraphEngine:
		return e.lp
	}
	panic("not an agent-level engine: " + e.Name())
}
