package meanfield

import (
	"math"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/dynamics"
	"plurality/internal/engine"
	"plurality/internal/rng"
)

func TestStepPreservesSimplex(t *testing.T) {
	x := []float64{0.5, 0.3, 0.2}
	dst := make([]float64, 3)
	Step(dynamics.ThreeMajority{}, x, dst)
	sum := 0.0
	for _, v := range dst {
		if v < 0 || v > 1 {
			t.Fatalf("fraction out of range: %v", dst)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

// isFixedPoint reports whether one mean-field step moves x by at most tol
// in L1.
func isFixedPoint(model dynamics.ProbModel, x []float64, tol float64) bool {
	next := make([]float64, len(x))
	Step(model, x, next)
	return Distance(x, next) <= tol
}

func TestVerticesAreFixedPoints(t *testing.T) {
	for _, model := range []dynamics.ProbModel{
		dynamics.ThreeMajority{}, dynamics.Median{}, dynamics.Polling{},
	} {
		x := []float64{0, 1, 0}
		if !isFixedPoint(model, x, 1e-9) {
			t.Errorf("%T: monochromatic vertex is not a fixed point", model)
		}
	}
}

func TestUniformIsFixedPointButUnstable(t *testing.T) {
	// The balanced point is fixed for 3-majority by symmetry...
	x := []float64{0.25, 0.25, 0.25, 0.25}
	if !isFixedPoint(dynamics.ThreeMajority{}, x, 1e-6) {
		t.Error("uniform point should be fixed")
	}
	// ...but any perturbation grows (Lemma 2): after iterating, the
	// leader's fraction increases monotonically.
	y := []float64{0.28, 0.24, 0.24, 0.24}
	traj := Iterate(dynamics.ThreeMajority{}, y, 40)
	prev := traj[0][0]
	for i := 1; i < len(traj); i++ {
		if traj[i][0] < prev-1e-9 {
			t.Fatalf("leader fraction shrank at round %d: %v -> %v", i, prev, traj[i][0])
		}
		prev = traj[i][0]
	}
	if traj[len(traj)-1][0] < 0.99 {
		t.Fatalf("mean-field did not converge to the leader: %v", traj[len(traj)-1])
	}
}

func TestPollingMeanFieldIsConstant(t *testing.T) {
	// Polling's adoption probabilities are exactly the current fractions —
	// the mean-field map is the identity (the voter martingale).
	x := []float64{0.6, 0.3, 0.1}
	traj := Iterate(dynamics.Polling{}, x, 10)
	for _, row := range traj {
		if Distance(row, x) > 1e-6 {
			t.Fatalf("polling mean-field moved: %v", row)
		}
	}
}

func TestMedianMeanFieldConvergesToMedianColor(t *testing.T) {
	// Median dynamics: the color holding the median of the distribution
	// wins regardless of the plurality. Color 0 has 40%, but the median
	// sample (CDF crossing 1/2) is color 1.
	x := []float64{0.4, 0.35, 0.25}
	traj := Iterate(dynamics.Median{}, x, 200)
	if final := traj[len(traj)-1]; final[1] < 0.999 {
		t.Fatalf("median mean-field did not converge to color 1 in 200 rounds: %v", final)
	}
}

func TestLemma2HoldsInMeanField(t *testing.T) {
	// The bias growth of the mean-field map must satisfy Lemma 2's bound
	// (it is exactly the expectation drift).
	x := []float64{0.30, 0.25, 0.25, 0.20}
	next := make([]float64, 4)
	Step(dynamics.ThreeMajority{}, x, next)
	s := x[0] - x[1]
	bound := s * (1 + x[0]*(1-x[0]))
	if next[0]-next[1] < bound-1e-6 {
		t.Fatalf("mean-field drift %v below Lemma 2 bound %v", next[0]-next[1], bound)
	}
}

func TestStochasticTracksMeanField(t *testing.T) {
	// The n-agent process after one round deviates from the mean-field
	// step by O(1/sqrt n) per color.
	n := int64(1_000_000)
	init := colorcfg.Biased(n, 4, 100_000)
	x := init.Fractions()
	want := make([]float64, 4)
	Step(dynamics.ThreeMajority{}, x, want)

	e := engine.NewCliqueMultinomial(dynamics.ThreeMajority{}, init)
	e.Step(rng.New(1))
	got := e.Config().Fractions()
	for j := range want {
		if math.Abs(got[j]-want[j]) > 5/math.Sqrt(float64(n)) {
			t.Errorf("color %d: stochastic %v vs mean-field %v", j, got[j], want[j])
		}
	}
}

func TestIterateTrajectoryShape(t *testing.T) {
	x := []float64{0.7, 0.3}
	traj := Iterate(dynamics.ThreeMajority{}, x, 5)
	if len(traj) != 6 {
		t.Fatalf("trajectory length %d, want 6", len(traj))
	}
	if Distance(traj[0], x) != 0 {
		t.Fatal("trajectory[0] must equal x0")
	}
	// Mutating the input must not affect the recorded trajectory.
	x[0] = 0
	if traj[0][0] != 0.7 {
		t.Fatal("trajectory aliases the input")
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"lenMismatch": func() { Step(dynamics.ThreeMajority{}, []float64{1}, make([]float64, 2)) },
		"negative":    func() { Step(dynamics.ThreeMajority{}, []float64{-1, 2}, make([]float64, 2)) },
		"zeroSum":     func() { Step(dynamics.ThreeMajority{}, []float64{0, 0}, make([]float64, 2)) },
		"distLen":     func() { Distance([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
