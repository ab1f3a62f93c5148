package topo

import (
	"slices"

	"plurality/internal/rng"
)

// The regular:D build as it was before its closure-free shuffle, its
// clean-row repair skip and sort8: tryRandomRegularRef and sortRowsRef
// are kept, test-only, as the reference the build must reproduce byte for
// byte and draw for draw (TestRandomRegularMatchesReference). They are
// verbatim but for two calls: the shuffle goes through shuffleSwapRef, the
// swap-closure loop that (*rng.Rand).Shuffle ran before rng.Shuffle
// replaced it, and the rows are sorted by sortRowsRef. Do not edit them.

// shuffleSwapRef is the Fisher–Yates loop of the former (*rng.Rand).Shuffle.
func shuffleSwapRef(r *rng.Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// randomRegularRef is RandomRegular's restart loop over tryRandomRegularRef.
func randomRegularRef(name string, n, d int64, r *rng.Rand) *CSR {
	for attempt := 0; attempt < 100; attempt++ {
		if g := tryRandomRegularRef(name, n, d, r); g != nil {
			return g
		}
	}
	panic("topo: failed to sample a simple random regular graph")
}

// tryRandomRegularRef is tryRandomRegular as it was: one pairing + repair
// attempt; nil means the swap budget ran out.
func tryRandomRegularRef(name string, n, d int64, r *rng.Rand) *CSR {
	total := n * d
	neighbors := make([]int32, total)
	func() { // scope the stub arrays so they free before the repair sweep
		// Stub multiset: vertex v appears d times; a random pairing of
		// stubs is stubs[2i] — stubs[2i+1].
		stubs := make([]int32, total)
		for i := int64(0); i < total; i++ {
			stubs[i] = int32(i / d)
		}
		shuffleSwapRef(r, len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		// Scatter the pairing into fixed-stride CSR rows (every vertex
		// has exactly d slots: row v is [v*d, v*d+d)).
		cursor := make([]int32, n)
		for i := int64(0); i < total; i += 2 {
			a, b := stubs[i], stubs[i+1]
			neighbors[int64(a)*d+int64(cursor[a])] = b
			cursor[a]++
			neighbors[int64(b)*d+int64(cursor[b])] = a
			cursor[b]++
		}
	}()

	// Repair: sweep vertices; each self-loop or duplicate entry is swapped
	// with a uniformly random other edge. A successful swap never creates
	// a new loop or duplicate anywhere (all four incident rows are
	// checked), so one sweep converges.
	budget := 200*d*d + 10_000
	row := func(v int64) []int32 { return neighbors[v*d : v*d+d] }
	isBad := func(v int64, slot int64) bool {
		rv := row(v)
		u := rv[slot]
		if int64(u) == v {
			return true
		}
		for j := int64(0); j < d; j++ {
			if j != slot && rv[j] == u {
				return true
			}
		}
		return false
	}
	contains := func(v int64, u int32) bool {
		for _, x := range row(v) {
			if x == u {
				return true
			}
		}
		return false
	}
	replaceOne := func(v int64, from, to int32) {
		rv := row(v)
		for j := range rv {
			if rv[j] == from {
				rv[j] = to
				return
			}
		}
		panic("topo: repair lost an edge mirror")
	}
	for v := int64(0); v < n; v++ {
		for slot := int64(0); slot < d; slot++ {
			for isBad(v, slot) {
				if budget <= 0 {
					return nil
				}
				budget--
				p := r.Int63n(total)
				c := p / d
				if c == v {
					continue
				}
				old, w := row(v)[slot], neighbors[p]
				// New edges would be {v, w} and {c, old}: reject loops
				// and duplicates on all incident rows (symmetry covers
				// the mirrored rows).
				if int64(w) == v || c == int64(old) || contains(v, w) || contains(c, old) {
					continue
				}
				row(v)[slot] = w
				neighbors[p] = old
				replaceOne(int64(old), int32(v), int32(c))
				replaceOne(int64(w), int32(c), int32(v))
			}
		}
	}

	offsets := make([]int64, n+1)
	for v := int64(0); v <= n; v++ {
		offsets[v] = v * d
	}
	g := &CSR{GraphName: name, Offsets: offsets, Neighbors: neighbors}
	sortRowsRef(g)
	return g
}

// sortRowsRef is sortRows as it was: slices.Sort on every row.
func sortRowsRef(g *CSR) {
	n := g.N()
	for v := int64(0); v < n; v++ {
		slices.Sort(g.Neighbors[g.Offsets[v]:g.Offsets[v+1]])
	}
}
