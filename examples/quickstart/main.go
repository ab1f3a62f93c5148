// Quickstart: run the paper's 3-majority dynamics on the clique from a
// biased configuration and watch it converge to the plurality color.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -n 2000 -k 4   # tiny run (CI smoke)
package main

import (
	"flag"
	"fmt"

	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/obs"
	"plurality/internal/rng"
)

func main() {
	var (
		n    = flag.Int64("n", 1_000_000, "number of agents")
		k    = flag.Int("k", 16, "number of colors")
		seed = flag.Uint64("seed", 42, "rng seed")
	)
	flag.Parse()

	// The paper's sufficient bias (Corollary 1 shape with practical
	// constant 1): s = sqrt(λ·n·ln n), λ = min{2k, (n/ln n)^(1/3)}.
	s := core.Corollary1Bias(*n, *k, 1.0)
	init := colorcfg.Biased(*n, *k, s)
	fmt.Printf("n=%d agents, k=%d colors, initial bias s=%d\n", *n, *k, s)
	fmt.Printf("initial: plurality=color %d, c1=%d, c2=%d\n",
		init.Plurality(), init.Sorted()[0], init.Sorted()[1])

	// The exact configuration-level engine: O(k) per round even at n=10^6.
	eng := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)

	res := core.Run(eng, core.Options{
		MaxRounds: 10_000,
		Rand:      rng.New(*seed),
		Observer: obs.ObserverFunc(func(round int, _, _ int64, c colorcfg.Config) {
			if round%5 == 0 || c.IsMonochromatic() {
				first, _ := c.TopTwo()
				fmt.Printf("  round %3d: c_max=%7d  bias=%7d\n", round, first, c.Bias())
			}
		}),
	})

	fmt.Printf("\nconsensus on color %d after %d rounds (won initial plurality: %v)\n",
		res.Winner, res.Rounds, res.WonInitialPlurality)
	lambda := core.Lambda(*n, *k)
	fmt.Printf("theory: λ=%.3g → O(λ·ln n) ≈ %.0f rounds\n",
		lambda, core.UpperBoundRounds(*n, lambda, 1))
}
