// Topologies: the paper analyzes the clique; this extension runs the same
// 3-majority rule with local neighbor sampling across the whole topo
// registry — from expanders down to bottleneck graphs — and shows how
// expansion governs convergence: each row reports the topology's spectral
// gap (lazy-walk, estimated by internal/topo/spectral) next to its
// convergence behavior. Expanders track the clique; the torus pays a
// polynomial mixing penalty; the cycle and the barbell effectively freeze.
//
//	go run ./examples/topologies
//	go run ./examples/topologies -n 2000 -reps 2 -graphs complete,regular:8,barbell:4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
	"plurality/internal/topo"
	"plurality/internal/topo/spectral"
)

func main() {
	var (
		n      = flag.Int64("n", 10_000, "vertices (must satisfy each family's shape constraints)")
		k      = flag.Int("k", 4, "colors")
		reps   = flag.Int("reps", 5, "replicates per topology")
		limit  = flag.Int("limit", 20_000, "round cap")
		seed   = flag.Uint64("seed", 7, "base seed")
		graphs = flag.String("graphs", "complete,regular:8,smallworld:8:0.1,ba:4,gnp:0.0016,torus,sbm:2:0.0032:0.0002,barbell:8,cycle",
			"comma-separated topo registry specs ("+strings.Join(topo.FamilyUsages(), " | ")+")")
	)
	flag.Parse()
	bias := *n * 3 / 20

	fmt.Printf("3-majority with local sampling: n=%d, k=%d, bias=%d, %d reps, cap %d rounds\n\n",
		*n, *k, bias, *reps, *limit)
	fmt.Printf("%-20s %-13s %-10s %-12s %s\n", "topology", "spectral_gap", "converged", "mean rounds", "mean final c_max/n")

	for _, spec := range strings.Split(*graphs, ",") {
		spec = strings.TrimSpace(spec)
		canon, err := topo.Canonical(spec, *n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topologies: %v (adjust -n or drop the family)\n", err)
			os.Exit(1)
		}
		// One quenched graph per topology, shared across replicates; the
		// gap is a property of the structure, so it is estimated once.
		g, err := topo.BuildSource(canon, *n, rng.New(*seed), topo.BuildOpts{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "topologies: %v\n", err)
			os.Exit(1)
		}
		gap := "-"
		if diag, err := spectral.Diagnose(g, rng.New(*seed+1), spectral.Options{}); err == nil {
			gap = fmt.Sprintf("%.2e", diag.SpectralGap)
		}
		conv := 0
		var rounds, share float64
		for rep := 0; rep < *reps; rep++ {
			r := rng.New(*seed + uint64(rep)*1000 + 11)
			e := engine.NewGraphEngine(dynamics.ThreeMajority{}, g,
				colorcfg.Biased(*n, *k, bias), 4, *seed^(uint64(rep)<<8), r)
			res := core.Run(e, core.Options{MaxRounds: *limit, Rand: r})
			e.Close()
			if res.Stopped {
				conv++
			}
			rounds += float64(res.Rounds) / float64(*reps)
			first, _ := res.Final.TopTwo()
			share += float64(first) / float64(*n) / float64(*reps)
		}
		fmt.Printf("%-20s %-13s %6d/%-3d %12.0f %17.3f\n", canon, gap, conv, *reps, rounds, share)
	}

	fmt.Println("\nreading: convergence tracks the spectral gap — expanders (regular, ba, smallworld)")
	fmt.Println("mimic the clique's O(λ log n); the torus pays its polynomial mixing penalty; the")
	fmt.Println("bottleneck families (barbell, sparse sbm) and the cycle stall at the round cap.")
}
