package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestReseed(t *testing.T) {
	a := New(7)
	first := make([]uint64, 64)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Seed(7)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("reseed did not reset state at draw %d", i)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(99)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniform(t *testing.T) {
	// Chi-square test over 16 buckets; threshold is the 0.999 quantile of
	// chi2 with 15 dof (~37.7), generous against flakes.
	r := New(42)
	const buckets, draws = 16, 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("chi-square %v too large; counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / 100000
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

// TestPermIsPermutation: Shuffle turns [0, m) into a permutation of it at
// every length up to 64.
func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := make([]int, m)
		for i := range p {
			p[i] = i
		}
		Shuffle(r, p)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPermUniformFirstElement: the first entry of a shuffled [0, 5) is
// uniform over it.
func TestPermUniformFirstElement(t *testing.T) {
	r := New(11)
	const n, draws = 5, 50000
	var counts [n]int
	p := make([]int, n)
	for i := 0; i < draws; i++ {
		for j := range p {
			p[j] = j
		}
		Shuffle(r, p)
		counts[p[0]]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("first element %d count %d deviates from %v", i, c, expected)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(13)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Shuffle(r, xs)
	seen := make(map[int]bool)
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("shuffle duplicated %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestJumpDisjoint(t *testing.T) {
	// After a jump the stream should not collide with the pre-jump stream
	// over a modest window.
	a := New(77)
	b := *a
	b.Jump()
	aVals := make(map[uint64]bool, 4096)
	for i := 0; i < 4096; i++ {
		aVals[a.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 4096; i++ {
		if aVals[b.Uint64()] {
			collisions++
		}
	}
	if collisions > 1 {
		t.Fatalf("jumped stream collided %d times with base stream", collisions)
	}
}

// TestCloneProducesSameSequence: a value copy of a Rand is a clone of
// it, replaying the original's sequence (TestJumpDisjoint copies one so).
func TestCloneProducesSameSequence(t *testing.T) {
	a := New(123)
	a.Uint64()
	b := *a
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("clone diverged at draw %d", i)
		}
	}
}

// TestStreamsIndependent checks the keyed streams the agent-level engines
// reseed per (round, block): a key reproduces its stream however the
// generator was used before, and neighbouring keys and seeds draw
// disjoint values.
func TestStreamsIndependent(t *testing.T) {
	var r, again Rand
	seen := make(map[uint64]string)
	for _, seed := range []uint64{2024, 2025} {
		for round := uint64(0); round < 3; round++ {
			for i := uint64(0); i < 4; i++ {
				key := fmt.Sprint(seed, "/", round, "/", i)
				r.SeedStream(seed, round, i)
				again.SeedStream(seed, round, i)
				for d := 0; d < 1000; d++ {
					v := r.Uint64()
					if again.Uint64() != v {
						t.Fatalf("stream %s not reproducible at draw %d", key, d)
					}
					if prev, ok := seen[v]; ok {
						t.Fatalf("streams %s and %s collided on value %x", prev, key, v)
					}
					seen[v] = key
				}
			}
		}
	}
}

func TestNewStreamDiffers(t *testing.T) {
	parent := New(55)
	c1 := parent.NewStream()
	c2 := parent.NewStream()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams matched on %d/1000 draws", same)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(31)
	trues := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)-draws/2) > 4*math.Sqrt(draws/4) {
		t.Fatalf("Bool heavily biased: %d/%d", trues, draws)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000003)
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// BenchmarkSeedStream times the per-block reseed of the agent-level
// engines, which pay two per block of ⌊1024/h⌋ agents per round.
func BenchmarkSeedStream(b *testing.B) {
	var r Rand
	var sink uint64
	for i := 0; b.Loop(); i++ {
		r.SeedStream(7, 3, uint64(i))
		sink += r.s0
	}
	_ = sink
}
