package topo

import (
	"path/filepath"
	"slices"
	"testing"

	"plurality/internal/rng"
)

func TestCompleteWithSelf(t *testing.T) {
	g := NewComplete(10)
	if g.Degree(3) != 10 {
		t.Errorf("degree = %d, want 10 (self included)", g.Degree(3))
	}
	// Neighbor enumeration covers all n vertices, self included.
	for i := int64(0); i < 10; i++ {
		if u := g.Neighbor(3, i); u != i {
			t.Fatalf("Neighbor(3,%d) = %d, want %d", i, u, i)
		}
	}
}

func TestCompleteWithoutSelf(t *testing.T) {
	g := Complete{Vertices: 8}
	if g.Degree(0) != 7 {
		t.Errorf("degree = %d, want 7", g.Degree(0))
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
	if g.Neighbor(2, 0) != 0 {
		t.Fatal("a leaf's one neighbor must be the hub")
	}
	for i := int64(0); i < 5; i++ {
		if g.Neighbor(0, i) != i+1 {
			t.Fatalf("hub's neighbor %d is %d, want leaf %d", i, g.Neighbor(0, i), i+1)
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

// TestResolveBlockMatchesNeighbor pins the BlockResolver contract: for
// every vertex of a block and every draw in [0, degree), the resolver
// equals per-sample Neighbor, and it allocates nothing. TorusD resolves
// with its own division-free method, at dims 1, 2, 3 and the widest torus
// NewTorusD accepts (side 3, dims 39, n = 3³⁹, implicit, so it costs no
// memory); a MappedCSR with its own method, on a regular:8 file (rows at
// v·d) and on a ba:3 file whose degrees vary (one offset read per
// vertex); the cycle resolves as the 1-d torus it is, and the hypercube
// takes Resolver's per-draw fallback.
// Blocks start at 0, start mid-row, end at n-1 and straddle a long carry,
// so they cross every wrap.
func TestResolveBlockMatchesNeighbor(t *testing.T) {
	const blockLen = 200
	widest := NewTorusD(satPow(3, 39), 39)
	if widest.Side != 3 || widest.N() != satPow(3, 39) {
		t.Fatalf("widest torus is %d^%d", widest.Side, widest.Dims)
	}
	dir := t.TempDir()
	mapped := func(spec string) *MappedCSR {
		src, err := BuildSource(spec, 1000, rng.New(8), BuildOpts{Path: filepath.Join(dir, spec+".csr")})
		if err != nil {
			t.Fatal(err)
		}
		m := src.(*MappedCSR)
		t.Cleanup(func() { m.Close() })
		return m
	}
	regular, skewed := mapped("regular:8"), mapped("ba:3")
	if regular.UniformDegree() != 8 || skewed.UniformDegree() != 0 {
		t.Fatalf("mapped UniformDegree: regular:8 %d, ba:3 %d", regular.UniformDegree(), skewed.UniformDegree())
	}
	for _, tc := range []struct {
		src    NeighborSource
		starts []int64
	}{
		{NewTorusD(7, 1), []int64{0}},
		{NewTorusD(150, 1), []int64{0, 37, 150 - blockLen/2}},
		{NewTorusD(24*24, 2), []int64{0, 341, 24*24 - blockLen}},
		{NewTorusD(5*5*5, 3), []int64{0, 3, 125 - blockLen/2}},
		{NewTorusD(14*14*14, 3), []int64{0, 14*14 - 7, 14*14*14 - blockLen}},
		{widest, []int64{0, 1, satPow(3, 20) - blockLen/2, widest.N() - blockLen}},
		{regular, []int64{0, 341, 1000 - blockLen}},
		{skewed, []int64{0, 341, 1000 - blockLen}},
		{NewCycle(150), []int64{0, 150 - blockLen/2}},
		{NewHypercube(512), []int64{0, 312}},
	} {
		g := tc.src
		br := Resolver(g)
		if own, ok := g.(BlockResolver); ok && br != own {
			t.Fatalf("%s: Resolver does not return the source's own ResolveBlock", g.Name())
		}
		deg := int(g.Degree(0))
		for _, v0 := range tc.starts {
			m := min(int64(blockLen), g.N()-v0)
			// h = degree(0) with draw s in slot s covers every draw of
			// every vertex of a uniform-degree source; h = 3 covers an h
			// that does not divide the degree. Each draw stays below its
			// own vertex's degree.
			for _, h := range []int{deg, 3} {
				draws := make([]int64, m*int64(h))
				for p := range draws {
					d := g.Degree(v0 + int64(p/h))
					if h == deg {
						draws[p] = int64(p%h) % d
					} else {
						draws[p] = int64(p*7+p/h) % d
					}
				}
				got := slices.Clone(draws)
				br.ResolveBlock(v0, h, got)
				for p, i := range draws {
					v := v0 + int64(p/h)
					if want := g.Neighbor(v, i); got[p] != want {
						t.Fatalf("%s n=%d, block at %d, h=%d: vertex %d draw %d resolves to %d, Neighbor gives %d",
							g.Name(), g.N(), v0, h, v, i, got[p], want)
					}
				}
				if a := testing.AllocsPerRun(10, func() {
					copy(got, draws)
					br.ResolveBlock(v0, h, got)
				}); a != 0 {
					t.Errorf("%s: ResolveBlock allocates %.1f objects/op, want 0", g.Name(), a)
				}
			}
		}
	}
}
