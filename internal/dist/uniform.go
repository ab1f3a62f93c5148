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

// fillUniformChunk is the number of raw draws FillUniform generates per
// rng.Uint64Block call.
const fillUniformChunk = 256

// FillUniform fills dst with independent uniform draws from [0, n),
// consuming the rng exactly as len(dst) sequential r.Int63n(n) calls would —
// the output values and the generator's end state are byte-identical for
// any seed. It generates raw draws through rng.Uint64Block, which keeps the
// generator state in registers, asking each time for no more draws than
// slots remain unfilled, so a rejected draw never over-draws the stream.
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
	var raw [fillUniformChunk]uint64
	for len(dst) > 0 {
		chunk := raw[:min(len(dst), len(raw))]
		r.Uint64Block(chunk)
		filled := 0
		for _, x := range chunk {
			hi, lo := bits.Mul64(x, un)
			if lo < thresh {
				continue // rejected: the next raw draw replaces it
			}
			dst[filled] = int64(hi)
			filled++
		}
		dst = dst[filled:]
	}
}
