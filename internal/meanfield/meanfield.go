// Package meanfield iterates the deterministic infinite-population limit
// of a dynamics: the fraction vector evolves as x(t+1) = p(x(t)), where p
// is the rule's adoption-probability map (Lemma 1 for 3-majority). The
// stochastic process at population n stays within O(1/sqrt n) of this
// recursion over any constant number of rounds, which experiment E17
// verifies; the recursion also exposes the fixed-point structure (every
// vertex of the simplex is absorbing; the uniform point is the unstable
// balanced state).
package meanfield

import (
	"math"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
)

// scale converts a fraction vector to a pseudo-configuration for the
// ProbModel interface, which is scale-free for all rules in this
// repository (they depend only on c/n).
const scale = 1 << 30

// Step applies one round of the mean-field map to the fraction vector x
// (must sum to 1), writing the result to dst. x and dst may alias.
func Step(model dynamics.ProbModel, x []float64, dst []float64) {
	if len(x) != len(dst) {
		panic("meanfield: length mismatch")
	}
	c := make(colorcfg.Config, len(x))
	for j, f := range x {
		if f < 0 {
			panic("meanfield: negative fraction")
		}
		c[j] = int64(f * scale)
	}
	// Guard against an all-zero rounding artifact.
	if c.N() == 0 {
		panic("meanfield: fraction vector sums to zero")
	}
	model.AdoptionProbs(c, dst)
}

// Iterate runs the mean-field recursion for the given number of rounds and
// returns the full trajectory, trajectory[0] being a copy of x0.
func Iterate(model dynamics.ProbModel, x0 []float64, rounds int) [][]float64 {
	traj := make([][]float64, 0, rounds+1)
	cur := append([]float64(nil), x0...)
	traj = append(traj, append([]float64(nil), cur...))
	for t := 0; t < rounds; t++ {
		next := make([]float64, len(cur))
		Step(model, cur, next)
		cur = next
		traj = append(traj, append([]float64(nil), cur...))
	}
	return traj
}

// Distance returns the L1 distance between two fraction vectors.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("meanfield: length mismatch")
	}
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}
