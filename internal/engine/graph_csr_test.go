package engine

import (
	"slices"
	"sort"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/rng"
	"plurality/internal/stats"
	"plurality/internal/topo"
)

// opaqueSource hides a source's concrete type behind the bare interface,
// so NewGraphEngine's *topo.CSR and topo.Complete assertions fail and the
// engine takes the generic NeighborSource path over the exact same
// structure.
type opaqueSource struct{ topo.NeighborSource }

// TestGraphEngineCSRByteContract pins the representation-independence
// contract: the CSR direct-slice path and the generic NeighborSource path
// consume the rng identically, so the same (structure, seed) pair yields
// byte-identical runs whichever path executes.
func TestGraphEngineCSRByteContract(t *testing.T) {
	csr := topo.RandomRegular("regular:6", 900, 6, rng.New(31))
	init := colorcfg.Biased(900, 4, 120)
	for _, workers := range []int{1, 3} {
		fast := NewGraphEngine(dynamics.ThreeMajority{}, csr, init, workers, 77, rng.New(5))
		slow := NewGraphEngine(dynamics.ThreeMajority{}, opaqueSource{csr}, init, workers, 77, rng.New(5))
		if fast.lp.offsets == nil || slow.lp.offsets != nil {
			t.Fatal("fast-path detection broken: want flat path vs generic path")
		}
		for round := 0; round < 12; round++ {
			fast.Step(nil)
			slow.Step(nil)
			if !fast.Config().Equal(slow.Config()) {
				t.Fatalf("workers=%d round %d: configs diverged: %v vs %v",
					workers, round, fast.Config(), slow.Config())
			}
			if !slices.Equal(fast.Colors(), slow.Colors()) {
				t.Fatalf("workers=%d round %d: per-vertex colors diverged", workers, round)
			}
		}
		fast.Close()
		slow.Close()
	}
}

// oneRoundColor0Samples runs reps independent one-round executions and
// returns the color-0 count after the round for each.
func oneRoundColor0Samples(init colorcfg.Config, reps int, build func(rep int) Engine) []float64 {
	out := make([]float64, reps)
	for rep := 0; rep < reps; rep++ {
		e := build(rep)
		e.Step(rng.New(uint64(rep) + 900_001))
		out[rep] = float64(e.Config()[0])
		e.Close()
	}
	return out
}

// twoSampleChi2 bins two equal-size samples on combined deciles and
// returns the two-sample chi-square statistic with its degrees of freedom
// (χ² = Σ (R−S)²/(R+S) for equal sample counts).
func twoSampleChi2(t *testing.T, a, b []float64) (float64, int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("unequal sample sizes %d vs %d", len(a), len(b))
	}
	combined := append(slices.Clone(a), b...)
	sort.Float64s(combined)
	const bins = 10
	edges := make([]float64, 0, bins-1)
	for i := 1; i < bins; i++ {
		edges = append(edges, combined[i*len(combined)/bins])
	}
	binOf := func(x float64) int { return sort.SearchFloat64s(edges, x+0.5) } // counts are integers
	var r, s [bins]float64
	for _, x := range a {
		r[binOf(x)]++
	}
	for _, x := range b {
		s[binOf(x)]++
	}
	var stat float64
	df := -1
	for i := 0; i < bins; i++ {
		if r[i]+s[i] == 0 {
			continue
		}
		df++
		d := r[i] - s[i]
		stat += d * d / (r[i] + s[i])
	}
	return stat, df
}

// TestGraphEngineCSRCrossCheck is the statistical half of the port: the
// one-round color-0 count of the flat loop over the materialized clique
// (rows include self) must be distributed identically to the paper
// engine's alias loop (two-sample chi-square, α = 0.001). The flat loop's
// equivalence with the generic loop is pinned byte for byte by
// TestGraphEngineCSRByteContract.
func TestGraphEngineCSRCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check")
	}
	const n, reps = 360, 2500
	init := colorcfg.FromCounts(150, 120, 90)
	rule := dynamics.ThreeMajority{}
	clique := topo.NewComplete(n)
	csr, err := topo.MaterializeCSR("complete", clique)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("clique", func(t *testing.T) {
		a := oneRoundColor0Samples(init, reps, func(rep int) Engine {
			return NewGraphEngine(rule, csr, init, 2, uint64(rep)*2+1, nil)
		})
		b := oneRoundColor0Samples(init, reps, func(rep int) Engine {
			return NewGraphEngine(rule, clique, init, 1, uint64(rep)*2+800_000_001, nil)
		})
		stat, df := twoSampleChi2(t, a, b)
		if crit := stats.ChiSquareCritical(df, 0.001); stat > crit {
			t.Errorf("χ² = %.2f > crit %.2f (df %d): flat loop diverges from the alias loop", stat, crit, df)
		}
	})
}

// TestGraphEngineCSRLargeShardedRound exercises the sharded CSR path on a
// larger sparse graph across worker counts, checking tally/agent-array
// agreement (the n = 10⁷ scale claim is benchmarked, not unit-tested).
func TestGraphEngineCSRLargeShardedRound(t *testing.T) {
	const n = 200_000
	csr := topo.RandomRegular("regular:8", n, 8, rng.New(8))
	init := colorcfg.Biased(n, 5, 20_000)
	for _, workers := range []int{1, 4} {
		e := NewGraphEngine(dynamics.ThreeMajority{}, csr, init, workers, 13, rng.New(2))
		for i := 0; i < 3; i++ {
			e.Step(nil)
			if err := e.Config().Validate(n); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, i, err)
			}
		}
		if recount := colorcfg.FromAgents(e.Colors(), 5); !recount.Equal(e.Config()) {
			t.Fatalf("workers=%d: tally drifted from agent array", workers)
		}
		e.Close()
	}
}
