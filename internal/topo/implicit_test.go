package topo

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"plurality/internal/rng"
)

func TestCompleteWithSelf(t *testing.T) {
	g := NewComplete(10)
	if g.Degree(3) != 10 {
		t.Errorf("degree = %d, want 10 (self included)", g.Degree(3))
	}
	// Sampling must be uniform over all vertices including self.
	r := rng.New(1)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[g.SampleNeighbor(3, r)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-draws/10) > 5*math.Sqrt(draws/10) {
			t.Errorf("vertex %d sampled %d times", v, c)
		}
	}
}

func TestCompleteWithoutSelf(t *testing.T) {
	g := Complete{Vertices: 8}
	if g.Degree(0) != 7 {
		t.Errorf("degree = %d, want 7", g.Degree(0))
	}
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		if g.SampleNeighbor(5, r) == 5 {
			t.Fatal("sampled self with IncludeSelf=false")
		}
	}
	// Neighbor enumeration must skip self and cover the other n-1.
	seen := map[int64]bool{}
	for i := int64(0); i < 7; i++ {
		u := g.Neighbor(5, i)
		if u == 5 || seen[u] {
			t.Fatalf("Neighbor(5,%d) = %d invalid", i, u)
		}
		seen[u] = true
	}
}

func TestCycle(t *testing.T) {
	g := NewCycle(5)
	checkCSR(t, sortedCSR(t, g))
	if g.Neighbor(0, 0) != 1 || g.Neighbor(0, 1) != 4 {
		t.Errorf("cycle neighbors of 0: %d %d", g.Neighbor(0, 0), g.Neighbor(0, 1))
	}
}

func TestTorus(t *testing.T) {
	g := NewTorusD(25, 2) // 5×5
	csr := sortedCSR(t, g)
	checkCSR(t, csr)
	if !connected(g) {
		t.Fatal("5×5 torus disconnected")
	}
	for v := int64(0); v < 25; v++ {
		if csr.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, csr.Degree(v))
		}
	}
	// Draw i of a vertex maps to its i-th neighbor, so the enumeration
	// order is part of the byte contract: the square torus steps along the
	// column (i = 0, 1) before the row (i = 2, 3).
	// Vertices 0 and 24 wrap downward and upward along both dimensions.
	for v, want := range map[int64][]int64{0: {1, 4, 5, 20}, 24: {20, 23, 4, 19}} {
		var got []int64
		for i := int64(0); i < g.Degree(v); i++ {
			got = append(got, g.Neighbor(v, i))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("5×5 torus: vertex %d enumerates %v, want %v", v, got, want)
		}
	}
}

func TestStar(t *testing.T) {
	g := NewStar(6)
	checkCSR(t, sortedCSR(t, g))
	if g.Degree(0) != 5 || g.Degree(3) != 1 {
		t.Errorf("star degrees: hub %d leaf %d", g.Degree(0), g.Degree(3))
	}
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		if g.SampleNeighbor(2, r) != 0 {
			t.Fatal("leaf must sample the hub")
		}
		if g.SampleNeighbor(0, r) == 0 {
			t.Fatal("hub must sample a leaf")
		}
	}
}

func TestImplicitNames(t *testing.T) {
	for want, g := range map[string]NeighborSource{
		"complete+self": NewComplete(5),
		"complete":      Complete{Vertices: 5},
		"cycle":         NewCycle(5),
		"star":          NewStar(4),
		"torus":         NewTorusD(9, 2),
		"torus3d":       NewTorusD(27, 3),
		"hypercube":     NewHypercube(8),
	} {
		if g.Name() != want {
			t.Errorf("Name() = %q, want %q", g.Name(), want)
		}
	}
}

func TestSampleNeighborIsNeighborProperty(t *testing.T) {
	r := rng.New(10)
	for _, g := range []NeighborSource{
		NewComplete(9),
		Complete{Vertices: 9},
		NewCycle(9),
		NewStar(7),
		NewTorusD(25, 2),
		NewTorusD(27, 3),
		NewHypercube(16),
	} {
		f := func(vRaw uint16) bool {
			v := int64(vRaw) % g.N()
			u := g.SampleNeighbor(v, r)
			for i := int64(0); i < g.Degree(v); i++ {
				if g.Neighbor(v, i) == u {
					return true
				}
			}
			return false
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Complete0": func() { NewComplete(0) },
		"Cycle2":    func() { NewCycle(2) },
		"Star1":     func() { NewStar(1) },
		"Torus2x2":  func() { NewTorusD(4, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
