package rng_test

import (
	"slices"
	"testing"

	"plurality/internal/colorcfg"
	"plurality/internal/rng"
)

// shuffleSwapRef is the Fisher–Yates loop of (*Rand).Shuffle as it was
// before rng.Shuffle replaced that method: it swaps through a function
// value. It is kept, test-only, as the reference rng.Shuffle must
// reproduce permutation for permutation and generator state for generator
// state. Do not edit it.
func shuffleSwapRef(r *rng.Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// TestShuffleMatchesSwapLoop requires rng.Shuffle to leave the permutation
// and the generator state the swap-closure loop leaves, for the two
// element types the builders shuffle (a graph's stub ids and an engine's
// agent colors), at lengths from empty to 2¹⁷.
func TestShuffleMatchesSwapLoop(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000, 1 << 17} {
		for seed := uint64(1); seed <= 3; seed++ {
			shuffleMatchesSwapLoop(t, n, seed, func(i int) int32 { return int32(i) })
			shuffleMatchesSwapLoop(t, n, seed, func(i int) colorcfg.Color { return colorcfg.Color(i) })
		}
	}
}

func shuffleMatchesSwapLoop[T comparable](t *testing.T, n int, seed uint64, elem func(int) T) {
	t.Helper()
	want := make([]T, n)
	for i := range want {
		want[i] = elem(i)
	}
	got := slices.Clone(want)
	ref, r := rng.New(seed), rng.New(seed)
	shuffleSwapRef(ref, n, func(i, j int) { want[i], want[j] = want[j], want[i] })
	rng.Shuffle(r, got)
	if !slices.Equal(got, want) {
		t.Errorf("%T n=%d seed=%d: Shuffle left another permutation than the swap loop", got, n, seed)
	}
	if *r != *ref {
		t.Errorf("%T n=%d seed=%d: Shuffle left another generator state than the swap loop", got, n, seed)
	}
}

// BenchmarkShuffle times one shuffle of 2²¹ int32, the stub array of a
// regular:8 build at n = 2¹⁸.
func BenchmarkShuffle(b *testing.B) {
	r := rng.New(1)
	s := make([]int32, 1<<21)
	for i := range s {
		s[i] = int32(i)
	}
	b.ReportAllocs()
	for b.Loop() {
		rng.Shuffle(r, s)
	}
}
