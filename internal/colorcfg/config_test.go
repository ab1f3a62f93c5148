package colorcfg

import (
	"math"
	"testing"
	"testing/quick"

	"plurality/internal/rng"
)

func TestBasicAccessors(t *testing.T) {
	c := FromCounts(5, 3, 2)
	if c.K() != 3 {
		t.Errorf("K = %d", c.K())
	}
	if c.N() != 10 {
		t.Errorf("N = %d", c.N())
	}
	if c.Plurality() != 0 {
		t.Errorf("Plurality = %d", c.Plurality())
	}
	if c.Bias() != 2 {
		t.Errorf("Bias = %d", c.Bias())
	}
	if c.Support() != 3 {
		t.Errorf("Support = %d", c.Support())
	}
}

func TestPluralityTieBreaksLow(t *testing.T) {
	c := FromCounts(4, 4, 2)
	if c.Plurality() != 0 {
		t.Errorf("tie must break to lowest index, got %d", c.Plurality())
	}
	if c.Bias() != 0 {
		t.Errorf("tied config must have bias 0, got %d", c.Bias())
	}
}

func TestTopTwo(t *testing.T) {
	cases := []struct {
		c             Config
		first, second int64
	}{
		{FromCounts(9), 9, 0},
		{FromCounts(1, 9), 9, 1},
		{FromCounts(3, 3, 3), 3, 3},
		{FromCounts(0, 7, 2, 7), 7, 7},
	}
	for _, tc := range cases {
		f, s := tc.c.TopTwo()
		if f != tc.first || s != tc.second {
			t.Errorf("TopTwo(%v) = (%d,%d), want (%d,%d)", []int64(tc.c), f, s, tc.first, tc.second)
		}
	}
}

func TestMonochromatic(t *testing.T) {
	if !FromCounts(0, 10, 0).IsMonochromatic() {
		t.Error("(0,10,0) should be monochromatic")
	}
	if FromCounts(9, 1).IsMonochromatic() {
		t.Error("(9,1) should not be monochromatic")
	}
	if FromCounts(0, 0).IsMonochromatic() {
		t.Error("empty config should not be monochromatic")
	}
}

func TestValidate(t *testing.T) {
	if err := FromCounts(1, 2, 3).Validate(6); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := FromCounts(1, 2, 3).Validate(7); err == nil {
		t.Error("wrong total accepted")
	}
	bad := Config{1, -1}
	if err := bad.Validate(-1); err == nil {
		t.Error("negative count accepted")
	}
	if err := FromCounts(1, 2, 3).Validate(-1); err != nil {
		t.Errorf("total check not skipped: %v", err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	c := FromCounts(1, 2, 3)
	d := c.Clone()
	if !c.Equal(d) {
		t.Error("clone not equal")
	}
	d[0] = 99
	if c.Equal(d) {
		t.Error("mutating clone changed original comparison")
	}
	if c[0] != 1 {
		t.Error("clone aliases original")
	}
	if c.Equal(FromCounts(1, 2)) {
		t.Error("different k compared equal")
	}
}

func TestSorted(t *testing.T) {
	c := FromCounts(2, 9, 5)
	s := c.Sorted()
	if s[0] != 9 || s[1] != 5 || s[2] != 2 {
		t.Errorf("Sorted = %v", s)
	}
	if c[0] != 2 {
		t.Error("Sorted mutated receiver")
	}
}

func TestMonochromaticDistance(t *testing.T) {
	// md of a monochromatic config is 1.
	if md := FromCounts(0, 10).MonochromaticDistance(); math.Abs(md-1) > 1e-12 {
		t.Errorf("monochromatic md = %v", md)
	}
	// md of a perfectly balanced config is k.
	if md := FromCounts(5, 5, 5, 5).MonochromaticDistance(); math.Abs(md-4) > 1e-12 {
		t.Errorf("balanced md = %v, want 4", md)
	}
	if md := (Config{0, 0}).MonochromaticDistance(); md != 0 {
		t.Errorf("zero config md = %v", md)
	}
}

func TestSumSquaresAndFractions(t *testing.T) {
	c := FromCounts(3, 4)
	if ss := c.SumSquares(); ss != 25 {
		t.Errorf("SumSquares = %v", ss)
	}
	fr := c.Fractions()
	if math.Abs(fr[0]-3.0/7) > 1e-12 || math.Abs(fr[1]-4.0/7) > 1e-12 {
		t.Errorf("Fractions = %v", fr)
	}
	z := Config{0, 0}
	fr = z.Fractions()
	if fr[0] != 0 || fr[1] != 0 {
		t.Errorf("zero Fractions = %v", fr)
	}
}

func TestAgentsRoundTrip(t *testing.T) {
	c := FromCounts(2, 0, 3)
	agents := c.ToAgents(nil)
	if len(agents) != 5 {
		t.Fatalf("len(agents) = %d", len(agents))
	}
	back := FromAgents(agents, 3)
	if !c.Equal(back) {
		t.Errorf("round trip: %v -> %v", []int64(c), []int64(back))
	}
	// Reuse path.
	buf := make([]Color, 10)
	agents2 := c.ToAgents(buf)
	if len(agents2) != 5 {
		t.Fatalf("reused len = %d", len(agents2))
	}
}

func TestFromAgentsPanicsOnBadColor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromAgents([]Color{0, 5}, 3)
}

func TestBiasedGenerator(t *testing.T) {
	c := Biased(1000, 7, 100)
	if err := c.Validate(1000); err != nil {
		t.Fatal(err)
	}
	if c.Plurality() != 0 {
		t.Errorf("plurality = %d", c.Plurality())
	}
	if c.Bias() < 100 {
		t.Errorf("bias = %d, want >= 100", c.Bias())
	}
	// Bias can exceed s only by the remainder spread (at most 1 here).
	if c.Bias() > 101 {
		t.Errorf("bias = %d, want <= 101", c.Bias())
	}
}

func TestBiasedProperty(t *testing.T) {
	f := func(nRaw uint16, kRaw, sRaw uint8) bool {
		n := int64(nRaw) + 1
		k := int(kRaw%20) + 1
		s := int64(sRaw) % (n + 1)
		c := Biased(n, k, s)
		return c.Validate(n) == nil && c.Bias() >= s-1 && c.Plurality() == 0 || k == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBalanced(t *testing.T) {
	c := Balanced(10, 3)
	if err := c.Validate(10); err != nil {
		t.Fatal(err)
	}
	if c.Bias() > 1 {
		t.Errorf("balanced bias = %d", c.Bias())
	}
}

func TestTheorem2Generator(t *testing.T) {
	n, k := int64(100000), 10
	c := Theorem2(n, k, 0.3)
	if err := c.Validate(n); err != nil {
		t.Fatal(err)
	}
	perColor := float64(n) / float64(k)
	maxAllowed := int64(perColor + math.Pow(perColor, 0.7) + 1)
	for j, v := range c {
		if v > maxAllowed {
			t.Errorf("color %d count %d exceeds Theorem-2 cap %d", j, v, maxAllowed)
		}
	}
	if c.Plurality() != 0 || c.Bias() == 0 {
		t.Errorf("Theorem2 config should lead with color 0: %v", c)
	}
}

func TestTheorem2Panics(t *testing.T) {
	for _, eps := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps=%v did not panic", eps)
				}
			}()
			Theorem2(100, 4, eps)
		}()
	}
}

func TestLemma10Generator(t *testing.T) {
	n, k := int64(10000), 16
	s := int64(math.Sqrt(float64(k)*float64(n)) / 6)
	c := Lemma10(n, k, s)
	if err := c.Validate(n); err != nil {
		t.Fatal(err)
	}
	if c.Bias() < s {
		t.Errorf("bias %d < s %d", c.Bias(), s)
	}
}

func TestLemma10PanicsWhenBiasTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for s > x")
		}
	}()
	Lemma10(100, 10, 50) // x = 5 < s
}

func TestTwoBlock(t *testing.T) {
	c := TwoBlock(10000, 8, 200, 0.9)
	if err := c.Validate(10000); err != nil {
		t.Fatal(err)
	}
	if c[0]+c[1] < 9000 {
		t.Errorf("leading blocks hold %d, want >= 9000", c[0]+c[1])
	}
	if c[0]-c[1] < 199 || c[0]-c[1] > 201 {
		t.Errorf("lead gap = %d, want ~200", c[0]-c[1])
	}
	c2 := TwoBlock(1000, 2, 10, 0.5)
	if err := c2.Validate(1000); err != nil {
		t.Fatal(err)
	}
}

func TestZipf(t *testing.T) {
	r := rng.New(42)
	c := Zipf(100000, 20, 1.0, r)
	if err := c.Validate(100000); err != nil {
		t.Fatal(err)
	}
	if c.Plurality() != 0 {
		t.Errorf("Zipf plurality = %d", c.Plurality())
	}
	// Counts should be non-increasing up to rounding noise.
	for j := 1; j < 20; j++ {
		if c[j] > c[j-1]+10 {
			t.Errorf("Zipf counts not decreasing at %d: %d > %d", j, c[j], c[j-1])
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	r := rng.New(1)
	for name, f := range map[string]func(){
		"NewK0":        func() { New(0) },
		"FromNeg":      func() { FromCounts(1, -1) },
		"BiasedK0":     func() { Biased(10, 0, 0) },
		"BiasedNegS":   func() { Biased(10, 2, -1) },
		"BiasedBigS":   func() { Biased(10, 2, 11) },
		"TwoBlockK1":   func() { TwoBlock(10, 1, 0, 0.5) },
		"TwoBlockFrac": func() { TwoBlock(10, 2, 0, 0) },
		"ZipfK0":       func() { Zipf(10, 0, 1, r) },
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

func TestStringer(t *testing.T) {
	s := FromCounts(5, 3).String()
	if s == "" {
		t.Error("empty String()")
	}
}
