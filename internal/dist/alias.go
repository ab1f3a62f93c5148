package dist

import (
	"math"
	"math/bits"

	"plurality/internal/rng"
)

// aliasSlot is one bucket of the alias table: a 64-bit fixed-point
// acceptance threshold and the alias category. 16 bytes, so the whole table
// for k colors is a single k·16-byte flat array — four slots per cache line.
type aliasSlot struct {
	thresh uint64 // accept this slot when the fractional draw is < thresh
	alias  int32  // category to return otherwise
	_      int32  // pad to 16 bytes so slots never straddle cache lines unevenly
}

// Alias samples from a discrete distribution over k categories in O(1) per
// draw using Vose's alias method. The table is built in O(k) and — crucially
// for per-round use in CliqueSampled — can be rebuilt in place with
// ResetCounts without allocating: construction worklists and the slot array
// are retained across rebuilds.
//
// Sampling consumes a single 64-bit variate: the high bits select a slot via
// Lemire's multiply-shift and the low 64 fixed-point bits are compared
// against the slot threshold. The residual bias of reusing the fractional
// part is < k·2⁻⁶⁴ per draw — unobservable at any feasible sample size.
//
// An Alias is immutable during sampling and therefore safe for concurrent
// Sample/SampleMany calls from multiple goroutines (each with its own
// *rng.Rand); ResetCounts must not race with sampling.
type Alias struct {
	slots []aliasSlot
	// Rebuild scratch, retained so ResetCounts is allocation-free.
	scaled []float64
	small  []int32
	large  []int32
}

// NewAliasCounts builds an alias table proportional to integer counts
// (weights[j] >= 0, Σ weights > 0). This is the shape engines use: a color
// configuration is exactly such a count vector.
func NewAliasCounts(counts []int64) *Alias {
	a := &Alias{
		slots:  make([]aliasSlot, len(counts)),
		scaled: make([]float64, len(counts)),
		small:  make([]int32, 0, len(counts)),
		large:  make([]int32, 0, len(counts)),
	}
	a.ResetCounts(counts)
	return a
}

// K returns the number of categories.
func (a *Alias) K() int { return len(a.slots) }

// ResetCounts rebuilds the table in place for a new count vector with the
// same number of categories. O(k), zero allocations.
func (a *Alias) ResetCounts(counts []int64) {
	if len(counts) != len(a.slots) {
		panic("dist: Alias.ResetCounts category count mismatch")
	}
	var total int64
	for _, c := range counts {
		if c < 0 {
			panic("dist: Alias negative count")
		}
		total += c
	}
	if total <= 0 {
		panic("dist: Alias needs a positive total count")
	}
	k := len(counts)
	kOverTotal := float64(k) / float64(total)
	for j, c := range counts {
		a.scaled[j] = float64(c) * kOverTotal
	}
	a.rebuild()
}

// rebuild runs Vose's pairing over a.scaled (each entry = k·p_j, mean 1).
func (a *Alias) rebuild() {
	small := a.small[:0]
	large := a.large[:0]
	for j, s := range a.scaled {
		if s < 1 {
			small = append(small, int32(j))
		} else {
			large = append(large, int32(j))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]

		a.slots[s] = aliasSlot{thresh: toFixed64(a.scaled[s]), alias: l}
		a.scaled[l] -= 1 - a.scaled[s]
		if a.scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers (from either list, due to float round-off) are full slots.
	for _, j := range large {
		a.slots[j] = aliasSlot{thresh: math.MaxUint64, alias: j}
	}
	for _, j := range small {
		a.slots[j] = aliasSlot{thresh: math.MaxUint64, alias: j}
	}
	a.small = small[:0]
	a.large = large[:0]
}

// toFixed64 maps x in [0,1] to 64-bit fixed point, saturating at MaxUint64.
func toFixed64(x float64) uint64 {
	if x <= 0 {
		return 0
	}
	v := x * (1 << 64)
	if v >= (1 << 64) { // x within one ulp of 1 rounds up to 2^64
		return math.MaxUint64
	}
	return uint64(v)
}

// Sample returns one category drawn from the table's distribution.
func (a *Alias) Sample(r *rng.Rand) int {
	hi, lo := bits.Mul64(r.Uint64(), uint64(len(a.slots)))
	s := a.slots[hi]
	if lo < s.thresh {
		return int(hi)
	}
	return int(s.alias)
}

// SampleMany fills dst with independent draws, byte-identical to len(dst)
// Sample calls. One tight loop over the flat slot array amortizes call
// overhead and keeps the table hot in cache; the agent-sampling engines
// use it to draw whole batches of agent samples at once. The loop steps a
// register copy of the generator (rng.Rand.Next) and stores it back once.
// The slot-or-alias choice is a conditional move rather than a branch: on
// a mid-run table the threshold compare goes either way at random, and a
// mispredicted branch per draw cost more than the draw itself. dst is an
// int32 slice so engines can pass their []Color buffers directly
// (Color = int32).
func (a *Alias) SampleMany(r *rng.Rand, dst []int32) {
	slots := a.slots
	k := uint64(len(slots))
	g := *r
	for i := range dst {
		var x uint64
		x, g = g.Next()
		hi, lo := bits.Mul64(x, k)
		s := slots[hi]
		c := s.alias
		if lo < s.thresh {
			c = int32(hi)
		}
		dst[i] = c
	}
	*r = g
}
