// Package rng provides a fast, deterministic pseudo-random number generator
// for the simulation engines.
//
// The generator is xoshiro256++ (Blackman & Vigna), seeded through splitmix64
// so that any 64-bit seed yields a well-mixed initial state. Every source of
// randomness in this repository flows through an explicit *Rand value — there
// is no global generator — which makes every simulation and experiment
// reproducible from a single seed.
//
// Independent parallel streams are derived with Jump (which advances the
// state by 2^128 steps, giving non-overlapping subsequences), with
// NewStream (which derives a child seed via splitmix64), or with
// SeedStream (which keys a stream by counters, so the agent-level engines
// can seed each block of agents from (seed, round, block) whichever
// goroutine runs it).
package rng

import "math/bits"

// Rand is a xoshiro256++ pseudo-random number generator. It is NOT safe for
// concurrent use; derive one Rand per goroutine via Jump or NewStream.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// golden is splitmix64's increment, 2^64 divided by the golden ratio.
const golden uint64 = 0x9e3779b97f4a7c15

// mix is splitmix64's output function, a bijection on uint64.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix64 advances x and returns a well-mixed 64-bit value. It is the
// recommended seeding procedure for the xoshiro family.
func splitmix64(x *uint64) uint64 {
	*x += golden
	return mix(*x)
}

// New returns a generator seeded from the given 64-bit seed. Different seeds
// yield independent-looking sequences; the same seed always yields the same
// sequence.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a 64-bit seed.
func (r *Rand) Seed(seed uint64) { r.seedFrom(seed) }

// SeedStream resets the generator in place to the stream keyed by
// (seed, round, i). Its four state words are the splitmix64 outputs at
// positions 4c+1 … 4c+4, with c = round·2³² + i, of the sequence that
// starts at mix(seed). Distinct keys thus never share a state word (for
// round < 2³⁰ and i < 2³²): this is the counter-based construction of
// Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11),
// with xoshiro256++ drawing from each keyed state.
func (r *Rand) SeedStream(seed, round, i uint64) {
	r.seedFrom(mix(seed) + (round<<32+i)*4*golden)
}

// seedFrom sets the state to the next four splitmix64 outputs after x.
func (r *Rand) seedFrom(x uint64) {
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// A state of all zeros is invalid for xoshiro; splitmix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = golden
	}
}

// Uint64 returns the next value of the xoshiro256++ sequence.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Next is the value form of Uint64: it returns the output Uint64 would
// return and the advanced state, leaving r itself unchanged. A per-draw
// loop copies the generator into a local, steps the copy with
// `x, g = g.Next()` and stores it back once after the loop, so the
// compiler keeps the four state words in registers instead of loading
// and storing them through a pointer on every draw. Uint64 stays the
// pointer form: the samplers that draw a few values per call (Float64,
// the binomial) are faster through it.
func (r Rand) Next() (uint64, Rand) {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result, r
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift bounded generation with rejection,
// which is exact (unbiased) and avoids the modulo operation on the
// fast path.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Lemire's method: multiply a 64-bit random value by n and keep the high
	// word; reject the small biased region of the low word.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Shuffle permutes s uniformly at random in place (Fisher–Yates). It
// draws r.Intn(i+1) for i = len(s)-1 down to 1 and swaps s[i] with the
// drawn index, so a seed fixes the permutation. The draw is Uint64n's
// Lemire map inline on a register copy of the generator (Next), and the
// swap is inline too: the graph builders shuffle one entry per adjacency
// slot.
func Shuffle[T any](r *Rand, s []T) {
	g := *r
	for i := len(s) - 1; i > 0; i-- {
		n := uint64(i + 1)
		var x uint64
		x, g = g.Next()
		j, lo := bits.Mul64(x, n)
		if lo < n {
			thresh := -n % n
			for lo < thresh {
				x, g = g.Next()
				j, lo = bits.Mul64(x, n)
			}
		}
		s[i], s[j] = s[j], s[i]
	}
	*r = g
}

// NewStream derives an independent child generator from this one. The child
// is seeded from fresh output of the parent, so distinct calls produce
// distinct streams. Use this to hand one generator to each worker goroutine.
func (r *Rand) NewStream() *Rand {
	return New(r.Uint64())
}

// jumpPoly is the xoshiro256 jump polynomial; Jump advances the state by
// 2^128 steps of the underlying sequence.
var jumpPoly = [4]uint64{
	0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
	0xa9582618e03fc9aa, 0x39abdc4529b1661c,
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls to
// Uint64. It can be used to generate 2^128 non-overlapping subsequences for
// parallel computations: copy the generator (a value copy of a Rand has
// its state), Jump the copy, repeat.
func (r *Rand) Jump() {
	var t0, t1, t2, t3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				t0 ^= r.s0
				t1 ^= r.s1
				t2 ^= r.s2
				t3 ^= r.s3
			}
			r.Uint64()
		}
	}
	r.s0, r.s1, r.s2, r.s3 = t0, t1, t2, t3
}
