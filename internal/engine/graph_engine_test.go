package engine

import (
	"math"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/topo"
)

func TestGraphEngineCliqueConservesN(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := rng.New(1)
		g := topo.NewComplete(3000)
		e := NewGraphEngine(dynamics.ThreeMajority{}, g, colorcfg.Biased(3000, 4, 200), workers, 77, rng.New(5))
		for i := 0; i < 20; i++ {
			e.Step(r)
			if err := e.Config().Validate(3000); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, i, err)
			}
			// The tallied config must match a recount of the agent array.
			recount := colorcfg.FromAgents(e.Colors(), 4)
			if !recount.Equal(e.Config()) {
				t.Fatalf("tally drifted from agents at round %d", i)
			}
		}
	}
}

func TestGraphEngineCliqueMatchesLemma1Drift(t *testing.T) {
	// One round on topo.Complete(+self) must have the Lemma 1 expectation.
	init := colorcfg.FromCounts(400, 350, 250)
	n := init.N()
	rule := dynamics.ThreeMajority{}
	probs := make([]float64, 3)
	rule.AdoptionProbs(init, probs)

	const reps = 2000
	mean := make([]float64, 3)
	for i := 0; i < reps; i++ {
		g := topo.NewComplete(n)
		e := NewGraphEngine(rule, g, init, 2, uint64(i), nil)
		e.Step(nil)
		for j, v := range e.Config() {
			mean[j] += float64(v) / reps
		}
	}
	for j := range probs {
		want := probs[j] * float64(n)
		se := math.Sqrt(float64(n)) / math.Sqrt(reps)
		if math.Abs(mean[j]-want) > 6*se {
			t.Errorf("color %d: graph-engine mean %v, lemma1 %v", j, mean[j], want)
		}
	}
}

func TestGraphEngineConvergesOnClique(t *testing.T) {
	r := rng.New(2)
	n := int64(10000)
	g := topo.NewComplete(n)
	e := NewGraphEngine(dynamics.ThreeMajority{}, g, colorcfg.Biased(n, 3, 1500), 4, 42, rng.New(1))
	for i := 0; i < 300 && !e.Config().IsMonochromatic(); i++ {
		e.Step(r)
	}
	final := e.Config()
	if !final.IsMonochromatic() || final.Plurality() != 0 {
		t.Fatalf("clique graph engine failed: %v", final)
	}
}

// TestCliqueSampledMatchesGraphEngine pins that the two clique engines
// run one sampling loop: with equal seed, CliqueSampled and GraphEngine on
// the complete graph with self loops step through identical per-round
// counts.
func TestCliqueSampledMatchesGraphEngine(t *testing.T) {
	const n, rounds = 3000, 30
	init := colorcfg.Biased(n, 4, 100)
	for _, name := range []string{"3majority", "3majority-utie", "hplurality:5"} {
		rule, err := dynamics.ParseRule(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			sampled := NewCliqueSampled(rule, init, workers, 11)
			graph := NewGraphEngine(rule, topo.NewComplete(n), init, workers, 11, rng.New(5))
			for round := 1; round <= rounds; round++ {
				sampled.Step(nil)
				graph.Step(nil)
				if a, b := sampled.Config(), graph.Config(); !a.Equal(b) {
					t.Fatalf("%s w=%d round %d: sampled %v, graph %v", name, workers, round, a, b)
				}
			}
			sampled.Close()
			graph.Close()
		}
	}
}

func TestGraphEngineDeterministic(t *testing.T) {
	run := func() colorcfg.Config {
		g := topo.NewTorusD(400, 2)
		e := NewGraphEngine(dynamics.ThreeMajority{}, g, colorcfg.Biased(400, 3, 60), 3, 9, rng.New(4))
		for i := 0; i < 15; i++ {
			e.Step(nil)
		}
		return e.Config()
	}
	if a, b := run(), run(); !a.Equal(b) {
		t.Fatalf("graph engine not deterministic: %v vs %v", a, b)
	}
}

func TestGraphEngineOnTorusConservesN(t *testing.T) {
	g := topo.NewTorusD(100, 2)
	e := NewGraphEngine(dynamics.ThreeMajority{}, g, colorcfg.Biased(100, 2, 30), 1, 3, rng.New(8))
	for i := 0; i < 50; i++ {
		e.Step(nil)
		if err := e.Config().Validate(100); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

func TestGraphEngineRejectsSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on n mismatch")
		}
	}()
	NewGraphEngine(dynamics.ThreeMajority{}, topo.NewComplete(10), colorcfg.Biased(20, 2, 2), 1, 1, nil)
}

func TestGraphEngineRepaint(t *testing.T) {
	g := topo.NewComplete(100)
	e := NewGraphEngine(dynamics.ThreeMajority{}, g, colorcfg.FromCounts(60, 40), 1, 1, nil)
	if moved := e.Repaint(0, 1, 25); moved != 25 {
		t.Fatalf("moved %d", moved)
	}
	c := e.Config()
	if c[0] != 35 || c[1] != 65 {
		t.Fatalf("after repaint: %v", c)
	}
	recount := colorcfg.FromAgents(e.Colors(), 2)
	if !recount.Equal(c) {
		t.Fatal("repaint desynced tally from agents")
	}
	if e.Repaint(0, 0, 5) != 0 {
		t.Fatal("same-color repaint must be a no-op")
	}
}

func TestGraphEngineStarHubDominance(t *testing.T) {
	// On a star, leaves always sample the hub (h times), so after one
	// round every leaf adopts the hub's color; the hub samples uniform
	// leaves. Start with hub color 0 and all leaves color 1: after one
	// round all leaves are color 0.
	n := int64(101)
	g := topo.NewStar(n)
	// Agents laid out deterministically: color 0 first (vertex 0 = hub).
	init := colorcfg.FromCounts(1, 100)
	e := NewGraphEngine(dynamics.ThreeMajority{}, g, init, 1, 6, nil)
	e.Step(nil)
	c := e.Config()
	if c[0] < 100 {
		t.Fatalf("leaves did not adopt hub color: %v", c)
	}
}

func TestGraphEngineWithoutSelfDriftVanishes(t *testing.T) {
	// Ablation: excluding self from the sample perturbs the drift by
	// O(1/n); at n = 4000 the one-round means should agree within error.
	init := colorcfg.FromCounts(2000, 1200, 800)
	n := init.N()
	rule := dynamics.ThreeMajority{}
	const reps = 800
	meanWith := make([]float64, 3)
	meanWithout := make([]float64, 3)
	for i := 0; i < reps; i++ {
		eWith := NewGraphEngine(rule, topo.NewComplete(n), init, 2, uint64(i), nil)
		eWith.Step(nil)
		eWithout := NewGraphEngine(rule, topo.Complete{Vertices: n, IncludeSelf: false}, init, 2, uint64(i)+500000, nil)
		eWithout.Step(nil)
		for j := range meanWith {
			meanWith[j] += float64(eWith.Config()[j]) / reps
			meanWithout[j] += float64(eWithout.Config()[j]) / reps
		}
	}
	for j := range meanWith {
		se := math.Sqrt(float64(n)) / math.Sqrt(reps) * 2
		if math.Abs(meanWith[j]-meanWithout[j]) > 6*se {
			t.Errorf("color %d: with-self %v vs without-self %v differ beyond noise",
				j, meanWith[j], meanWithout[j])
		}
	}
}
