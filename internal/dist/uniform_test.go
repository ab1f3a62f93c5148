package dist

import (
	"testing"

	"plurality/internal/rng"
)

// fillUniformChunk is a block length TestFillUniformMatchesInt63n runs
// FillUniform at, besides lengths just off its multiples.
const fillUniformChunk = 256

// TestFillUniformMatchesInt63n pins the kernel's contract: for any n,
// FillUniform produces the same values AND leaves the generator in the same
// state as sequential Int63n calls. The n values cover powers of two
// (where the rejection threshold is zero), small odd degrees, and huge n
// where Lemire's rejection actually fires (a quarter of the draws at
// n = 3·2⁶¹). The lengths cover one raw chunk exactly, and lengths that
// are not a multiple of it.
func TestFillUniformMatchesInt63n(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 6, 8, 1000, 1 << 20, (1 << 61) + 1, 3 << 61} {
		for _, length := range []int{1, fillUniformChunk, 1000, 3*fillUniformChunk + 1} {
			r1, r2 := rng.New(99), rng.New(99)
			got := make([]int64, length)
			FillUniform(r1, n, got)
			for i, v := range got {
				want := r2.Int63n(n)
				if v != want {
					t.Fatalf("n=%d len=%d: dst[%d] = %d, want Int63n's %d", n, length, i, v, want)
				}
				if v < 0 || v >= n {
					t.Fatalf("n=%d len=%d: dst[%d] = %d out of range", n, length, i, v)
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Errorf("n=%d len=%d: generator state diverged from sequential Int63n", n, length)
			}
		}
	}
}

func TestFillUniformPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FillUniform(0) did not panic")
		}
	}()
	FillUniform(rng.New(1), 0, make([]int64, 4))
}

// TestFillUniformUniformity is a coarse GOF guard: over a small modulus
// every residue class should be hit roughly equally.
func TestFillUniformUniformity(t *testing.T) {
	const n, draws = 7, 70_000
	dst := make([]int64, draws)
	FillUniform(rng.New(5), n, dst)
	var counts [n]float64
	for _, v := range dst {
		counts[v]++
	}
	exp := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := c - exp
		chi2 += d * d / exp
	}
	// df=6, α≈0.001 critical value 22.46.
	if chi2 > 22.46 {
		t.Errorf("χ² = %.1f over %d classes (want < 22.46)", chi2, n)
	}
}

// BenchmarkFillUniform times one 1023-draw block at degree 8, the shape
// of an 8-regular graph's 3-majority block (341 agents × 3 samples).
func BenchmarkFillUniform(b *testing.B) {
	r := rng.New(1)
	dst := make([]int64, 1023)
	b.ReportAllocs()
	for b.Loop() {
		FillUniform(r, 8, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
}
