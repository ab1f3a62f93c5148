package dist

import (
	"math/bits"
	"testing"

	"plurality/internal/rng"
)

func TestAliasMatchesCounts(t *testing.T) {
	counts := []int64{1, 0, 3, 6, 0, 10, 100}
	var total int64
	for _, c := range counts {
		total += c
	}
	a := NewAliasCounts(counts)
	r := rng.New(42)
	const draws = 1_000_000
	obs := make([]float64, len(counts))
	for i := 0; i < draws; i++ {
		j := a.Sample(r)
		if j < 0 || j >= len(counts) {
			t.Fatalf("sample %d out of range", j)
		}
		obs[j]++
	}
	exp := make([]float64, len(counts))
	for j, c := range counts {
		exp[j] = float64(c) / float64(total) * draws
	}
	for j, c := range counts {
		if c == 0 && obs[j] != 0 {
			t.Errorf("zero-count category %d sampled %v times", j, obs[j])
		}
	}
	stat, df := chiSquareStat(t, obs, exp)
	if crit := chiSquareCrit(df); stat > crit {
		t.Errorf("alias χ² = %.1f > crit %.1f (df=%d)", stat, crit, df)
	}
}

// TestAliasSampleManyMatchesSample: the batched sampler must consume the
// rng stream identically to repeated single draws, on every table shape
// the engines build: draws equal one for one, and both generators end in
// the same state. The multi-category tables have slots whose threshold
// compare goes both ways, and the test requires that the draws took both
// outcomes, so the branch-free select is checked on each.
func TestAliasSampleManyMatchesSample(t *testing.T) {
	linear64 := make([]int64, 64)
	for j := range linear64 {
		linear64[j] = int64(j + 1)
	}
	for _, tc := range []struct {
		name   string
		counts []int64
	}{
		{"small", []int64{5, 1, 9, 4, 11, 3}},
		// colorcfg.Biased(2^18, 8, core.Corollary1Bias(2^18, 8, 1)): the
		// graph-grid benchmark's start.
		{"k8-start", []int64{39098, 31864, 31864, 31864, 31864, 31864, 31863, 31863}},
		{"k8-plurality60", []int64{157286, 14980, 14980, 14980, 14980, 14980, 14979, 14979}},
		{"zero-counts", []int64{0, 7, 0, 3, 12, 0, 1, 0}},
		{"single", []int64{5}},
		{"k64-linear", linear64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAliasCounts(tc.counts)
			r1, r2, r3 := rng.New(9), rng.New(9), rng.New(9)
			batch := make([]int32, 4093)
			a.SampleMany(r1, batch)
			var slot, alias int
			for i, got := range batch {
				if want := int32(a.Sample(r2)); got != want {
					t.Fatalf("draw %d: SampleMany %d != Sample %d", i, got, want)
				}
				hi, lo := bits.Mul64(r3.Uint64(), uint64(a.K()))
				if s := a.slots[hi]; lo < s.thresh {
					slot++
				} else if s.alias != int32(hi) {
					alias++
				}
				if tc.counts[got] == 0 {
					t.Fatalf("draw %d: zero-count category %d", i, got)
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Error("generator state diverged from sequential Sample")
			}
			if a.K() > 1 && (slot == 0 || alias == 0) {
				t.Errorf("draws took the slot %d times and the alias %d times; want both", slot, alias)
			}
		})
	}
}

func TestAliasResetCounts(t *testing.T) {
	a := NewAliasCounts([]int64{1, 1, 1, 1})
	// Concentrate all mass on category 2 and verify the rebuild took.
	a.ResetCounts([]int64{0, 0, 7, 0})
	r := rng.New(4)
	for i := 0; i < 10_000; i++ {
		if j := a.Sample(r); j != 2 {
			t.Fatalf("after reset, sampled %d, want 2", j)
		}
	}
	// Rebuild and rebuild again: chi-square after several cycles.
	counts := []int64{10, 30, 20, 40}
	for cycle := 0; cycle < 3; cycle++ {
		a.ResetCounts([]int64{1, 1, 1, 1})
		a.ResetCounts(counts)
	}
	const draws = 500_000
	obs := make([]float64, 4)
	for i := 0; i < draws; i++ {
		obs[a.Sample(r)]++
	}
	exp := []float64{0.1 * draws, 0.3 * draws, 0.2 * draws, 0.4 * draws}
	stat, df := chiSquareStat(t, obs, exp)
	if crit := chiSquareCrit(df); stat > crit {
		t.Errorf("post-reset χ² = %.1f > crit %.1f (df=%d)", stat, crit, df)
	}
}

// TestAliasResetAllocs: rebuilds and draws must be allocation-free — the
// sampled engine rebuilds the table every round.
func TestAliasResetAllocs(t *testing.T) {
	counts := make([]int64, 128)
	for j := range counts {
		counts[j] = int64(j + 1)
	}
	a := NewAliasCounts(counts)
	r := rng.New(8)
	buf := make([]int32, 256)
	if n := testing.AllocsPerRun(100, func() {
		a.ResetCounts(counts)
		a.Sample(r)
		a.SampleMany(r, buf)
	}); n != 0 {
		t.Errorf("Reset+Sample allocates %.1f objects/op, want 0", n)
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a := NewAliasCounts([]int64{5})
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if j := a.Sample(r); j != 0 {
			t.Fatalf("k=1 sampled %d", j)
		}
	}
}

func TestAliasPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero-total":     func() { NewAliasCounts([]int64{0, 0}) },
		"negative-count": func() { NewAliasCounts([]int64{3, -1}) },
		"reset-mismatch": func() { NewAliasCounts([]int64{1, 1}).ResetCounts([]int64{1, 1, 1}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func BenchmarkAliasSample(b *testing.B) {
	counts := make([]int64, 64)
	for j := range counts {
		counts[j] = int64(j + 1)
	}
	a := NewAliasCounts(counts)
	r := rng.New(1)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += a.Sample(r)
	}
	_ = sink
}

func BenchmarkAliasSampleMany(b *testing.B) {
	counts := make([]int64, 64)
	for j := range counts {
		counts[j] = int64(j + 1)
	}
	a := NewAliasCounts(counts)
	r := rng.New(1)
	buf := make([]int32, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		a.SampleMany(r, buf)
	}
}

func BenchmarkAliasResetCounts(b *testing.B) {
	counts := make([]int64, 1024)
	for j := range counts {
		counts[j] = int64(j%37 + 1)
	}
	a := NewAliasCounts(counts)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.ResetCounts(counts)
	}
}
