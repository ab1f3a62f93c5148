package topo

import (
	"math"
	"slices"
	"testing"

	"plurality/internal/rng"
)

func TestRandomRegularInvariants(t *testing.T) {
	for _, tc := range []struct{ n, d int64 }{
		{10, 3}, {50, 4}, {64, 8}, {101, 4}, {200, 7}, {33, 32},
	} {
		g := RandomRegular("regular", tc.n, tc.d, rng.New(uint64(tc.n*31+tc.d)))
		degreeSum := checkCSR(t, g)
		if degreeSum != tc.n*tc.d {
			t.Errorf("n=%d d=%d: degree sum %d, want %d", tc.n, tc.d, degreeSum, tc.n*tc.d)
		}
		for v := int64(0); v < tc.n; v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("n=%d d=%d: degree(%d) = %d", tc.n, tc.d, v, g.Degree(v))
			}
		}
		if tc.d >= 3 && !connected(g) {
			// A random d-regular graph with d >= 3 is connected w.h.p.;
			// at these sizes a disconnection indicates a generator bug.
			t.Errorf("n=%d d=%d: disconnected", tc.n, tc.d)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a := RandomRegular("regular:6", 80, 6, rng.New(42))
	b := RandomRegular("regular:6", 80, 6, rng.New(42))
	if !slices.Equal(a.Neighbors, b.Neighbors) || !slices.Equal(a.Offsets, b.Offsets) {
		t.Fatal("RandomRegular not byte-deterministic for a fixed seed")
	}
	c := RandomRegular("regular:6", 80, 6, rng.New(43))
	if slices.Equal(a.Neighbors, c.Neighbors) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGnpInvariantsAndDensity(t *testing.T) {
	const n, p = 600, 0.05
	g := Gnp("gnp", n, p, rng.New(9))
	checkCSR(t, g)
	mean := p * float64(n) * float64(n-1) / 2
	sd := math.Sqrt(mean * (1 - p))
	if got := float64(g.Edges()); math.Abs(got-mean) > 6*sd {
		t.Errorf("edges = %v, want %v ± %v", got, mean, 6*sd)
	}
	if g0 := Gnp("gnp", 50, 0, rng.New(1)); g0.Edges() != 0 {
		t.Errorf("G(n, 0) has %d edges", g0.Edges())
	}
	if g1 := Gnp("gnp", 30, 1, rng.New(1)); g1.Edges() != 30*29/2 {
		t.Errorf("G(n, 1) has %d edges, want complete", g1.Edges())
	}
}

func TestSmallWorldInvariants(t *testing.T) {
	for _, beta := range []float64{0, 0.1, 0.5, 1} {
		const n, k = 400, 6
		g := SmallWorld("smallworld", n, k, beta, rng.New(uint64(beta*100)+3))
		degreeSum := checkCSR(t, g)
		// Rewiring keeps the edge count (an edge is dropped only when 64
		// redraw attempts fail, essentially impossible at k ≪ n).
		if degreeSum != n*k {
			t.Errorf("beta=%g: degree sum %d, want %d", beta, degreeSum, int64(n*k))
		}
		if beta == 0 {
			// Pure lattice: every vertex has exactly the band neighbors.
			for v := int64(0); v < n; v++ {
				if g.Degree(v) != k {
					t.Fatalf("lattice degree(%d) = %d, want %d", v, g.Degree(v), k)
				}
			}
		}
		if !connected(g) {
			t.Errorf("beta=%g: disconnected", beta)
		}
	}
}

func TestSmallWorldRewiringChangesGraph(t *testing.T) {
	const n, k = 200, 4
	lattice := SmallWorld("sw", n, k, 0, rng.New(1))
	rewired := SmallWorld("sw", n, k, 0.3, rng.New(1))
	if slices.Equal(lattice.Neighbors, rewired.Neighbors) {
		t.Fatal("beta=0.3 left the lattice untouched")
	}
}

func TestBarabasiAlbertInvariants(t *testing.T) {
	const n, m = 500, 3
	g := BarabasiAlbert("ba", n, m, rng.New(11))
	degreeSum := checkCSR(t, g)
	wantEdges := int64(m*(m+1)/2 + (n-m-1)*m)
	if g.Edges() != wantEdges {
		t.Errorf("edges = %d, want %d", g.Edges(), wantEdges)
	}
	if degreeSum != 2*wantEdges {
		t.Errorf("degree sum %d, want %d", degreeSum, 2*wantEdges)
	}
	// Every vertex attaches with m edges, so min degree is m; growth is
	// connected by construction.
	for v := int64(0); v < n; v++ {
		if g.Degree(v) < m {
			t.Fatalf("degree(%d) = %d < m", v, g.Degree(v))
		}
	}
	if !connected(g) {
		t.Error("BA graph disconnected")
	}
	// Preferential attachment produces hubs: the max degree should far
	// exceed the mean (4·mean is loose enough to be deterministic-ish
	// across seeds yet rules out uniform attachment).
	var maxDeg int64
	for v := int64(0); v < n; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	meanDeg := float64(degreeSum) / float64(n)
	if float64(maxDeg) < 4*meanDeg {
		t.Errorf("max degree %d vs mean %.1f: no hubs — attachment looks uniform", maxDeg, meanDeg)
	}
}

func TestSBMInvariantsAndCommunityStructure(t *testing.T) {
	const n, blocks = 600, 3
	const pin, pout = 0.08, 0.004
	g := SBM("sbm", n, blocks, pin, pout, rng.New(13))
	checkCSR(t, g)
	// Count within- vs cross-block adjacency entries; block = contiguous
	// range of n/blocks vertices.
	size := int64(n / blocks)
	var within, cross float64
	for v := int64(0); v < n; v++ {
		for _, u := range g.Neighbors[g.Offsets[v]:g.Offsets[v+1]] {
			if v/size == int64(u)/size {
				within++
			} else {
				cross++
			}
		}
	}
	wantWithin := float64(blocks) * pin * float64(size) * float64(size-1)
	wantCross := pout * float64(n) * float64(n-size)
	if math.Abs(within-wantWithin) > 6*math.Sqrt(wantWithin) {
		t.Errorf("within-block entries %v, want ~%v", within, wantWithin)
	}
	if math.Abs(cross-wantCross) > 6*math.Sqrt(wantCross) {
		t.Errorf("cross-block entries %v, want ~%v", cross, wantCross)
	}
}

func TestSBMOneBlockIsGnp(t *testing.T) {
	// blocks=1 must reproduce G(n, pin) exactly (identical rng stream).
	a := SBM("x", 100, 1, 0.07, 0.9, rng.New(21))
	b := Gnp("x", 100, 0.07, rng.New(21))
	if !slices.Equal(a.Neighbors, b.Neighbors) {
		t.Fatal("SBM with one block diverged from Gnp")
	}
}

func TestBarbellInvariants(t *testing.T) {
	const n, d = 200, 4
	g := Barbell("barbell", n, d, rng.New(17))
	checkCSR(t, g)
	h := int64(n / 2)
	for v := int64(0); v < n; v++ {
		want := int64(d)
		if v == h-1 || v == h {
			want = d + 1
		}
		if g.Degree(v) != want {
			t.Fatalf("degree(%d) = %d, want %d", v, g.Degree(v), want)
		}
	}
	if !connected(g) {
		t.Fatal("barbell disconnected")
	}
	// Exactly one edge crosses the halves: the bridge.
	crossing := 0
	for v := int64(0); v < h; v++ {
		for _, u := range g.Neighbors[g.Offsets[v]:g.Offsets[v+1]] {
			if int64(u) >= h {
				crossing++
			}
		}
	}
	if crossing != 1 {
		t.Fatalf("%d crossing edges, want exactly 1 bridge", crossing)
	}
}

func TestHypercubeStructure(t *testing.T) {
	g := NewHypercube(16)
	if g.N() != 16 || g.Dim != 4 {
		t.Fatalf("hypercube(16): n=%d dim=%d", g.N(), g.Dim)
	}
	checkCSR(t, sortedCSR(t, g))
	if !connected(g) {
		t.Fatal("hypercube disconnected")
	}
	for v := int64(0); v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	// Neighbors differ in exactly one bit.
	for i := int64(0); i < 4; i++ {
		u := g.Neighbor(5, i)
		if x := u ^ 5; x&(x-1) != 0 || x == 0 {
			t.Fatalf("neighbor %d of 5 is %d (not one bit away)", i, u)
		}
	}
}

func TestTorusDStructure(t *testing.T) {
	g := NewTorusD(27, 3) // 3×3×3
	if g.Side != 3 || g.Dims != 3 || g.N() != 27 {
		t.Fatalf("torus3: side=%d dims=%d n=%d", g.Side, g.Dims, g.N())
	}
	csr := sortedCSR(t, g)
	checkCSR(t, csr)
	if !connected(g) {
		t.Fatal("torus3 disconnected")
	}
	for v := int64(0); v < 27; v++ {
		if csr.Degree(v) != 6 {
			t.Fatalf("degree(%d) = %d, want 6", v, csr.Degree(v))
		}
	}
}

func TestIntRoot(t *testing.T) {
	cases := []struct {
		n    int64
		dims int
		root int64
		ok   bool
	}{
		{27, 3, 3, true}, {16, 4, 2, true}, {10000, 2, 100, true},
		{26, 3, 0, false}, {1, 2, 1, true}, {int64(1) << 62, 62, 2, true},
		{math.MaxInt64, 2, 0, false}, {0, 2, 0, false},
	}
	for _, tc := range cases {
		root, ok := intRoot(tc.n, tc.dims)
		if ok != tc.ok || (ok && root != tc.root) {
			t.Errorf("intRoot(%d, %d) = (%d, %v), want (%d, %v)", tc.n, tc.dims, root, ok, tc.root, tc.ok)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	// Every random family: same seed → byte-identical CSR.
	builds := map[string]func(r *rng.Rand) *CSR{
		"regular":    func(r *rng.Rand) *CSR { return RandomRegular("g", 60, 4, r) },
		"gnp":        func(r *rng.Rand) *CSR { return Gnp("g", 60, 0.1, r) },
		"smallworld": func(r *rng.Rand) *CSR { return SmallWorld("g", 60, 4, 0.2, r) },
		"ba":         func(r *rng.Rand) *CSR { return BarabasiAlbert("g", 60, 3, r) },
		"sbm":        func(r *rng.Rand) *CSR { return SBM("g", 60, 3, 0.2, 0.02, r) },
		"barbell":    func(r *rng.Rand) *CSR { return Barbell("g", 60, 4, r) },
	}
	for name, mk := range builds {
		a, b := mk(rng.New(5)), mk(rng.New(5))
		if !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Neighbors, b.Neighbors) {
			t.Errorf("%s: not byte-deterministic", name)
		}
	}
}

func TestGeometricSkipAlwaysPositive(t *testing.T) {
	r := rng.New(2)
	for _, p := range []float64{0.001, 0.5, 0.999} {
		for i := 0; i < 10000; i++ {
			if s := geometricSkip(r, p); s < 1 {
				t.Fatalf("skip %d < 1 at p=%v", s, p)
			}
		}
	}
}

func TestGeometricSkipMean(t *testing.T) {
	// E[skip] = 1/p.
	r := rng.New(3)
	const p, draws = 0.2, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(geometricSkip(r, p))
	}
	if mean := sum / draws; mean < 4.8 || mean > 5.2 {
		t.Fatalf("mean skip %v, want ~5", mean)
	}
}
