// Package colorcfg defines the k-color configuration type used throughout
// the plurality-consensus simulator, together with the standard workload
// generators from the paper (biased, balanced, Theorem-2 and Lemma-10
// shapes, Zipf-skewed, ...).
//
// A configuration c = (c_1, ..., c_k) records how many of the n agents
// currently support each color; Σ c_j = n. Following the paper, the bias
// s(c) is the gap between the largest and the second-largest count, and a
// configuration is monochromatic when a single color holds all n agents.
package colorcfg

import (
	"fmt"
	"math"
	"sort"

	"plurality/internal/rng"
)

// Color identifies one of the k opinions. Colors are dense integers in
// [0, k); the semantics of a color are external to the simulator.
type Color = int32

// Config is a k-color configuration: Config[j] is the number of agents
// currently supporting color j. The invariant Σ Config[j] = n is maintained
// by the engines; Validate checks it.
type Config []int64

// New returns an all-zero configuration with k colors.
func New(k int) Config {
	if k <= 0 {
		panic("colorcfg: k must be positive")
	}
	return make(Config, k)
}

// FromCounts returns a configuration with the given explicit counts.
// It panics if any count is negative.
func FromCounts(counts ...int64) Config {
	c := make(Config, len(counts))
	for i, v := range counts {
		if v < 0 {
			panic(fmt.Sprintf("colorcfg: negative count %d for color %d", v, i))
		}
		c[i] = v
	}
	return c
}

// K returns the number of colors (including colors with zero support).
func (c Config) K() int { return len(c) }

// N returns the total number of agents Σ c_j.
func (c Config) N() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// Validate returns an error if any count is negative or the total does not
// equal want (pass want < 0 to skip the total check).
func (c Config) Validate(want int64) error {
	var n int64
	for j, v := range c {
		if v < 0 {
			return fmt.Errorf("colorcfg: color %d has negative count %d", j, v)
		}
		n += v
	}
	if want >= 0 && n != want {
		return fmt.Errorf("colorcfg: total %d, want %d", n, want)
	}
	return nil
}

// Clone returns a deep copy.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports whether two configurations have identical counts.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Plurality returns the color with the largest count. Ties are broken in
// favor of the smallest color index (deterministic).
func (c Config) Plurality() Color {
	best := 0
	for j := 1; j < len(c); j++ {
		if c[j] > c[best] {
			best = j
		}
	}
	return Color(best)
}

// TopTwo returns the largest and second-largest counts (which may belong to
// equal-count colors). For k = 1 the second value is 0.
func (c Config) TopTwo() (first, second int64) {
	for _, v := range c {
		if v > first {
			first, second = v, first
		} else if v > second {
			second = v
		}
	}
	return first, second
}

// Bias returns s(c) = c_(1) - c_(2), the additive gap between the plurality
// count and the runner-up count. A monochromatic configuration with k > 1
// has bias n.
func (c Config) Bias() int64 {
	first, second := c.TopTwo()
	return first - second
}

// IsMonochromatic reports whether a single color holds every agent.
// The all-zero configuration (n = 0) is not considered monochromatic.
func (c Config) IsMonochromatic() bool {
	seen := false
	for _, v := range c {
		if v == 0 {
			continue
		}
		if seen {
			return false
		}
		seen = true
	}
	return seen
}

// Support returns the number of colors with at least one supporter.
func (c Config) Support() int {
	s := 0
	for _, v := range c {
		if v > 0 {
			s++
		}
	}
	return s
}

// Sorted returns the counts in non-increasing order (the paper's convention
// c_1 >= c_2 >= ... >= c_k). The receiver is not modified.
func (c Config) Sorted() []int64 {
	out := make([]int64, len(c))
	copy(out, c)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// MonochromaticDistance returns md(c) = Σ_j (c_j / c_max)², the quantity
// governing the convergence time of the undecided-state dynamics in the
// SODA'15 follow-up discussed in the related-work section. md(c) ∈ [1, k].
func (c Config) MonochromaticDistance() float64 {
	first, _ := c.TopTwo()
	if first == 0 {
		return 0
	}
	fm := float64(first)
	md := 0.0
	for _, v := range c {
		r := float64(v) / fm
		md += r * r
	}
	return md
}

// SumSquares returns Σ c_j², the quantity appearing in the Lemma 1 drift.
func (c Config) SumSquares() float64 {
	s := 0.0
	for _, v := range c {
		fv := float64(v)
		s += fv * fv
	}
	return s
}

// Fractions returns c_j / n for every color. n must be positive.
func (c Config) Fractions() []float64 {
	n := float64(c.N())
	out := make([]float64, len(c))
	if n == 0 {
		return out
	}
	for j, v := range c {
		out[j] = float64(v) / n
	}
	return out
}

// String renders the configuration compactly, listing counts in color order.
func (c Config) String() string {
	return fmt.Sprintf("Config(n=%d,k=%d,bias=%d,top=%d)", c.N(), c.K(), c.Bias(), c.Plurality())
}

// ToAgents expands the configuration into an explicit agent-color array of
// length n, with agents of each color laid out contiguously in color order.
// If dst is non-nil and large enough it is reused. Engines shuffle agent
// order where it matters (it does not on the clique: the dynamics are
// anonymous).
func (c Config) ToAgents(dst []Color) []Color {
	n := c.N()
	if int64(cap(dst)) < n {
		dst = make([]Color, n)
	}
	dst = dst[:n]
	i := 0
	for j, v := range c {
		for x := int64(0); x < v; x++ {
			dst[i] = Color(j)
			i++
		}
	}
	return dst
}

// FromAgents tallies an agent-color array into a configuration with k
// colors. It panics if an agent holds a color outside [0, k).
func FromAgents(agents []Color, k int) Config {
	c := New(k)
	for _, col := range agents {
		if col < 0 || int(col) >= k {
			panic(fmt.Sprintf("colorcfg: agent color %d outside [0,%d)", col, k))
		}
		c[col]++
	}
	return c
}

// ----- Workload generators -----

// Biased returns the canonical biased configuration used by the upper-bound
// experiments: the remaining n - s agents are split as evenly as possible
// across all k colors, and color 0 receives s additional agents. The
// resulting bias is at least s (slightly more when n - s is not divisible
// by k, since leftover agents go to the lowest color indices).
func Biased(n int64, k int, s int64) Config {
	if k <= 0 {
		panic("colorcfg: k must be positive")
	}
	if s < 0 || s > n {
		panic(fmt.Sprintf("colorcfg: bias %d outside [0, n=%d]", s, n))
	}
	c := New(k)
	base := (n - s) / int64(k)
	rem := (n - s) % int64(k)
	for j := 0; j < k; j++ {
		c[j] = base
		if int64(j) < rem {
			c[j]++
		}
	}
	c[0] += s
	return c
}

// Balanced returns the near-uniform configuration c_j = n/k (±1 for
// remainders), the worst case driving the Theorem 2 and Theorem 4 lower
// bounds.
func Balanced(n int64, k int) Config {
	return Biased(n, k, 0)
}

// Theorem2 returns the lower-bound configuration of Theorem 2: every color
// has n/k agents except color 0, which holds an extra (n/k)^(1-eps)
// imbalance (taken from the last color). Requires 0 < eps < 1.
func Theorem2(n int64, k int, eps float64) Config {
	if eps <= 0 || eps >= 1 {
		panic("colorcfg: Theorem2 requires 0 < eps < 1")
	}
	c := Balanced(n, k)
	perColor := float64(n) / float64(k)
	imb := int64(math.Pow(perColor, 1-eps))
	if imb >= c[len(c)-1] {
		imb = c[len(c)-1] - 1
	}
	if imb < 0 {
		imb = 0
	}
	c[0] += imb
	c[len(c)-1] -= imb
	return c
}

// Lemma10 returns the near-tight-bias configuration of Lemma 10:
// x = (n - s)/k agents on every color, plus s extra agents on color 0.
// The lemma shows that for s <= sqrt(kn)/6 the bias decreases in one round
// with constant probability. (Shape-wise this equals Biased; the separate
// constructor documents intent and applies the lemma's s <= x guard.)
func Lemma10(n int64, k int, s int64) Config {
	x := (n - s) / int64(k)
	if s > x {
		panic(fmt.Sprintf("colorcfg: Lemma10 requires s <= x = (n-s)/k; s=%d x=%d", s, x))
	}
	return Biased(n, k, s)
}

// PlantedLeader returns a configuration in which color 0 holds exactly c1
// agents and the remaining n - c1 agents are split as evenly as possible
// over the other k-1 colors. It is the Corollary 2/3 workload shape
// (c1 >= n/λ with the rest thin). Requires 0 <= c1 <= n and k >= 2.
func PlantedLeader(n int64, k int, c1 int64) Config {
	if k < 2 {
		panic("colorcfg: PlantedLeader requires k >= 2")
	}
	if c1 < 0 || c1 > n {
		panic(fmt.Sprintf("colorcfg: PlantedLeader c1=%d outside [0, n=%d]", c1, n))
	}
	c := New(k)
	c[0] = c1
	rest := n - c1
	per := rest / int64(k-1)
	rem := rest % int64(k-1)
	for j := 1; j < k; j++ {
		c[j] = per
		if int64(j-1) < rem {
			c[j]++
		}
	}
	return c
}

// TwoBlock returns a configuration in which colors 0 and 1 split nearly all
// agents (color 0 ahead by s) and the remaining k-2 colors share the rest
// thinly. frac is the fraction of agents in the two leading blocks.
func TwoBlock(n int64, k int, s int64, frac float64) Config {
	if k < 2 {
		panic("colorcfg: TwoBlock requires k >= 2")
	}
	if frac <= 0 || frac > 1 {
		panic("colorcfg: TwoBlock frac must be in (0, 1]")
	}
	lead := int64(frac * float64(n))
	if lead < s {
		lead = s
	}
	c := New(k)
	c[0] = (lead + s) / 2
	c[1] = lead - c[0]
	rest := n - c[0] - c[1]
	if k == 2 {
		c[0] += rest
		return c
	}
	per := rest / int64(k-2)
	rem := rest % int64(k-2)
	for j := 2; j < k; j++ {
		c[j] = per
		if int64(j-2) < rem {
			c[j]++
		}
	}
	return c
}

// Zipf returns a configuration whose counts follow a Zipf law with the given
// exponent (count of color j proportional to (j+1)^-exponent), randomly
// rounding so that the total is exactly n. The most popular color is color 0.
func Zipf(n int64, k int, exponent float64, r *rng.Rand) Config {
	if k <= 0 {
		panic("colorcfg: k must be positive")
	}
	weights := make([]float64, k)
	total := 0.0
	for j := 0; j < k; j++ {
		weights[j] = math.Pow(float64(j+1), -exponent)
		total += weights[j]
	}
	c := New(k)
	var assigned int64
	for j := 0; j < k; j++ {
		c[j] = int64(float64(n) * weights[j] / total)
		assigned += c[j]
	}
	// Distribute the rounding remainder uniformly at random.
	for assigned < n {
		c[r.Intn(k)]++
		assigned++
	}
	return c
}
