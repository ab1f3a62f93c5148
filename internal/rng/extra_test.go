package rng

import (
	"math"
	"testing"
)

func TestInt63nBoundsAndUniform(t *testing.T) {
	r := New(23)
	var counts [7]int
	const draws = 140000
	for i := 0; i < draws; i++ {
		v := r.Int63n(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		counts[v]++
	}
	expected := float64(draws) / 7
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, expected)
		}
	}
}

func TestInt63nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(0) did not panic")
		}
	}()
	New(1).Int63n(0)
}

func TestUint64nSmallModuliUnbiased(t *testing.T) {
	// Exercise the Lemire rejection path with a modulus just below a power
	// of two (worst case for naive modulo).
	r := New(24)
	const m = (1 << 3) - 1 // 7
	var counts [m]int
	const draws = 70000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(m)]++
	}
	expected := float64(draws) / m
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("bucket %d count %d deviates", i, c)
		}
	}
}

// TestNextMatchesUint64 pins the value step's contract: Next returns the
// output Uint64 returns and the state Uint64 leaves, step for step, and a
// loop that steps a register copy and stores it back once leaves the
// generator where as many Uint64 calls leave it.
func TestNextMatchesUint64(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r, ref := New(seed), New(seed)
		g := *r
		for i := 0; i < 10_000; i++ {
			var x uint64
			x, g = g.Next()
			if want := ref.Uint64(); x != want {
				t.Fatalf("seed %d step %d: Next = %#x, Uint64 = %#x", seed, i, x, want)
			}
			if g != *ref {
				t.Fatalf("seed %d step %d: Next left another state than Uint64", seed, i)
			}
		}
		if *r != *New(seed) {
			t.Fatalf("seed %d: Next changed its receiver's source", seed)
		}
		*r = g
		if r.Uint64() != ref.Uint64() {
			t.Errorf("seed %d: generator diverged after the stored-back copy", seed)
		}
	}
}
