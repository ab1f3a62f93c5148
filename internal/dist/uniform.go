package dist

import (
	"math/bits"

	"plurality/internal/rng"
)

// FillUniform is the batched uniform-index kernel of the graph engine's
// sparse hot path. Filling a whole block of neighbor indices in one tight
// loop (instead of one rng call interleaved per sample) lets the loop body
// stay in registers and lets the engine's subsequent color gathers
// pipeline their cache misses.

// FillUniform fills dst with independent uniform draws from [0, n),
// consuming the rng exactly as len(dst) sequential r.Int63n(n) calls would —
// the output values and the generator's end state are byte-identical for
// any seed. It steps a register copy of the generator (rng.Rand.Next) and
// stores it back once, and maps each draw as it is made, so a rejected
// draw is replaced by the next one and the stream is never over-drawn.
// Panics if n <= 0.
func FillUniform(r *rng.Rand, n int64, dst []int64) {
	if n <= 0 {
		panic("dist: FillUniform called with n <= 0")
	}
	// Lemire multiply-shift with rejection, the exact map of rng.Uint64n
	// with the threshold hoisted (thresh < n, so the single `lo < thresh`
	// test subsumes Uint64n's `lo < n` pre-test without changing which
	// draws are rejected). For n = 2^k the threshold is 0 and the high
	// word is the top k bits, as in Int63n.
	un := uint64(n)
	thresh := -un % un
	g := *r
	for i := range dst {
		var x uint64
		x, g = g.Next()
		hi, lo := bits.Mul64(x, un)
		for lo < thresh {
			x, g = g.Next()
			hi, lo = bits.Mul64(x, un)
		}
		dst[i] = int64(hi)
	}
	*r = g
}
