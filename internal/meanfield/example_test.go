package meanfield_test

import (
	"fmt"

	"plurality/internal/dynamics"
	"plurality/internal/meanfield"
)

// ExampleIterate runs the infinite-population recursion: a 40% leader
// among four colors races to 1 deterministically.
func ExampleIterate() {
	traj := meanfield.Iterate(dynamics.ThreeMajority{}, []float64{0.4, 0.2, 0.2, 0.2}, 20)
	last := traj[len(traj)-1]
	fmt.Printf("leader after 20 rounds: %.4f\n", last[0])
	// Output:
	// leader after 20 rounds: 1.0000
}
