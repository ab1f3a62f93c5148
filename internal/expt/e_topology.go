package expt

import (
	"fmt"
	"math"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/mc"
	"plurality/internal/rng"
	"plurality/internal/topo"
	"plurality/internal/topo/spectral"
)

func init() {
	register("E20", "Extension — spectral gap vs rounds to consensus", runE20)
}

// runE20 quantifies the E14 story: for every topology family in the topo
// registry, the table pairs the structure's estimated spectral gap (and
// sweep conductance) with the 3-majority rounds-to-consensus on it. The
// paper's clique guarantee sits at gap 1/2; as the gap shrinks through the
// expander families down to the torus, the barbell bottleneck, and the
// cycle, convergence slows and eventually stalls at the round cap — the
// gap, not the degree, is the controlling quantity (the 8-regular expander
// and the barbell have identical degrees and gaps five orders apart).
func runE20(p Profile, seed uint64) []*Table {
	n := p.N / 8
	side := int64(math.Sqrt(float64(n)))
	side -= side % 2 // even side → n even (barbell) and square (torus)
	n = side * side
	k := 4
	bias := n * 3 / 20
	limit := 10_000
	if quickish(p) {
		limit = 2_000
	}
	t := &Table{
		ID:    "E20",
		Title: "spectral gap vs 3-majority rounds to consensus across topology families",
		Note: fmt.Sprintf("n=%d, k=%d, bias=%d, %d reps, cap %d rounds; one quenched graph per family (registry spec, seed-derived); gap/conductance of the lazy walk estimated by topo/spectral (clique analytic); prediction: rounds grow as the gap falls, stalling on the Θ(1/n²)-gap families",
			n, k, bias, p.Reps, limit),
		Columns: []string{"graph", "spectral_gap", "conductance", "converged", "rounds_mean", "final_cmax_share"},
	}
	deg := 8.0
	specs := []string{
		"complete",
		"regular:8",
		fmt.Sprintf("gnp:%g", deg/float64(n)),
		"smallworld:8:0.1",
		"ba:4",
		fmt.Sprintf("sbm:2:%g:%g", deg/float64(n)*2, 2.0/float64(n)),
		"torus",
		"barbell:8",
		"cycle",
	}
	for _, spec := range specs {
		canon, err := topo.Canonical(spec, n)
		if err != nil {
			panic(fmt.Sprintf("expt: E20 spec %q invalid at n=%d: %v", spec, n, err))
		}
		g, err := topo.BuildSource(canon, n, rng.New(seed^hashName(canon)), topo.BuildOpts{})
		if err != nil {
			panic(fmt.Sprintf("expt: E20 build %q: %v", canon, err))
		}
		gapCell, condCell := "-", "-"
		if diag, err := spectral.Diagnose(g, rng.New(seed+1), spectral.Options{}); err == nil {
			gapCell = fmt.Sprintf("%.2e", diag.SpectralGap)
			condCell = fmt.Sprintf("%.2e", diag.Conductance)
		}
		t.AddRow(append([]string{canon, gapCell, condCell}, topologyRow(p, seed, canon, g, k, bias, limit)...)...)
	}
	return []*Table{t}
}

// topologyRow runs the replicates of one E14 or E20 row: p.Reps runs of
// 3-majority on the quenched graph g from Biased(g.N(), k, bias), each
// capped at limit rounds and seeded from seed and the row's name. It
// returns the row's converged, rounds_mean and final_cmax_share cells.
func topologyRow(p Profile, seed uint64, name string, g topo.NeighborSource, k int, bias int64, limit int) []string {
	n := g.N()
	recs := ParallelReps(p, p.Reps, seed+hashName(name), func(rep int, r *rng.Rand) mc.Record {
		e := engine.NewGraphEngine(dynamics.ThreeMajority{}, g,
			colorcfg.Biased(n, k, bias), 2, seed^uint64(rep)<<8^hashName(name), r)
		defer e.Close()
		res := core.Run(e, core.Options{MaxRounds: limit, Rand: r})
		first, _ := res.Final.TopTwo()
		// Success is convergence within the cap, not the paper's success
		// event; Value is the final leader share.
		return mc.Record{Rounds: res.Rounds, Success: res.Stopped, Value: float64(first) / float64(n)}
	})
	share := 0.0
	for _, rec := range recs {
		share += rec.Value
	}
	agg := mc.Aggregate(recs)
	return []string{fmtWins(agg), fmtF(agg.Rounds().Mean), fmtF(share / float64(agg.N))}
}
