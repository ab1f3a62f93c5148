package topo

import (
	"strings"
	"testing"
	"time"

	"plurality/internal/rng"
)

func TestRegistryBuildAllFamilies(t *testing.T) {
	// One resolvable spec per family at a size every constraint accepts.
	cases := []struct {
		spec string
		n    int64
	}{
		{"complete", 100},
		{"cycle", 100},
		{"star", 100},
		{"torus", 100},
		{"torus:3", 125},
		{"hypercube", 128},
		{"regular:4", 100},
		{"gnp:0.05", 100},
		{"smallworld:6:0.1", 100},
		{"ba:3", 100},
		{"sbm:4:0.2:0.01", 100},
		{"barbell:4", 100},
	}
	if len(cases) != len(families)+1 { // torus appears twice
		t.Fatalf("test covers %d specs, registry has %d families", len(cases), len(families))
	}
	for _, tc := range cases {
		if err := Validate(tc.spec, tc.n); err != nil {
			t.Errorf("Validate(%q, %d): %v", tc.spec, tc.n, err)
			continue
		}
		g, err := BuildSource(tc.spec, tc.n, rng.New(1), BuildOpts{})
		if err != nil {
			t.Errorf("BuildSource(%q, %d): %v", tc.spec, tc.n, err)
			continue
		}
		if g.N() != tc.n {
			t.Errorf("%q: built n = %d, want %d", tc.spec, g.N(), tc.n)
		}
		if csr, ok := g.(*CSR); ok {
			checkCSR(t, csr)
			if csr.GraphName == "" || !strings.HasPrefix(csr.GraphName, strings.Split(tc.spec, ":")[0]) {
				t.Errorf("%q: CSR name %q not canonical", tc.spec, csr.GraphName)
			}
		}
	}
}

func TestRegistryCanonicalNormalizes(t *testing.T) {
	cases := map[string]string{
		"gnp:0.5000":          "gnp:0.5",
		"regular:08":          "regular:8",
		"smallworld:10:0.100": "smallworld:10:0.1",
		"torus":               "torus",
		"sbm:3:0.5:0.0250":    "sbm:3:0.5:0.025",
	}
	for spec, want := range cases {
		got, err := Canonical(spec, 10000)
		if err != nil {
			t.Errorf("Canonical(%q): %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("Canonical(%q) = %q, want %q", spec, got, want)
		}
	}
}

func TestRegistryRejectsHostileSpecs(t *testing.T) {
	// Every rejection must be an error — never a panic, never a spin.
	// (The service admission path 400s on these.)
	cases := []struct {
		spec string
		n    int64
		frag string // substring the error must contain
	}{
		{"moebius", 100, "unknown graph"},
		{"", 100, "unknown graph"},
		{"complete:3", 100, "no parameters"},
		{"torus", 10, "side"},
		{"torus:0", 100, "outside"},
		{"torus:99", 100, "outside"},
		{"torus:3", 100, "side^3"},
		{"hypercube", 100, "power of two"},
		{"regular:0", 100, "outside"},
		{"regular:x", 100, "bad D"},
		{"regular:101", 100, "degree < n"},
		{"regular:3", 101, "even"},
		{"regular:8", 1 << 40, "2^31 materialized vertex cap"},
		// A hostile huge n must fail validation, not panic later in the
		// builder — even when the expected edge count is tiny (gnp:0) or
		// n·d overflows int64 past the MaxAdjEntries comparison.
		{"gnp:0", 4_000_000_000, "2^31 materialized vertex cap"},
		{"sbm:1:0:0", 4_000_000_000, "2^31 materialized vertex cap"},
		{"regular:2", 1 << 62, "2^31 materialized vertex cap"},
		{"smallworld:2:0", 1 << 33, "2^31 materialized vertex cap"},
		{"ba:1", 1 << 33, "2^31 materialized vertex cap"},
		{"barbell:1", 1 << 33, "2^31 materialized vertex cap"},
		{"gnp:1.5", 100, "outside"},
		{"gnp:NaN", 100, "bad P"},
		{"gnp:0.5", 1 << 30, "cap"},
		{"smallworld:5:0.1", 100, "even"},
		{"smallworld:6:2", 100, "outside"},
		{"smallworld:6", 100, "two parameters"},
		{"ba:200", 100, "M+1"},
		{"sbm:0:0.5:0.5", 100, "outside"},
		{"sbm:4:0.5", 100, "three parameters"},
		{"barbell:4", 101, "even n"},
		{"barbell:60", 100, "even n"},
		{"regular:4:9", 100, "one parameter"},
	}
	for _, tc := range cases {
		start := time.Now()
		err := Validate(tc.spec, tc.n)
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
			t.Errorf("Validate(%q, %d) took %v — not constant-time", tc.spec, tc.n, elapsed)
		}
		if err == nil {
			t.Errorf("Validate(%q, %d) accepted a hostile spec", tc.spec, tc.n)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Validate(%q, %d) error %q missing %q", tc.spec, tc.n, err, tc.frag)
		}
	}
}

func TestRegistryBuildDeterministic(t *testing.T) {
	// Registry-resolved builds are pure functions of (spec, n, seed).
	for _, spec := range []string{"regular:4", "smallworld:6:0.2", "ba:3", "sbm:3:0.2:0.02", "barbell:4", "gnp:0.08"} {
		a, err := BuildSource(spec, 120, rng.New(99), BuildOpts{})
		if err != nil {
			t.Fatalf("BuildSource(%q): %v", spec, err)
		}
		b, _ := BuildSource(spec, 120, rng.New(99), BuildOpts{})
		ca, cb := a.(*CSR), b.(*CSR)
		if ca.GraphName != cb.GraphName {
			t.Errorf("%q: names differ", spec)
		}
		for i, v := range ca.Neighbors {
			if cb.Neighbors[i] != v {
				t.Errorf("%q: graphs differ at entry %d", spec, i)
				break
			}
		}
	}
}

// FuzzRegistrySpec feeds arbitrary (spec, n, seed) triples to the
// registry. Canonical never panics, whatever the input. For an accepted
// spec at n <= 256 the canonical form is a fixed point of Canonical, and
// the spec and its canonical form, each built from rng.New(seed), give
// the same graph: n vertices, each neighbor id in [0, n). The corpus
// starts from every family's usage string and one accepted spec per
// family.
func FuzzRegistrySpec(f *testing.F) {
	for _, usage := range FamilyUsages() {
		f.Add(usage, int64(64), uint64(1))
	}
	for _, spec := range []string{
		"complete", "cycle", "star", "torus", "torus:3", "torus:1", "hypercube",
		"regular:4", "gnp:0.05", "smallworld:6:0.1", "ba:3", "sbm:4:0.2:0.01", "barbell:4",
	} {
		f.Add(spec, int64(64), uint64(2))
	}
	f.Add("regular:08", int64(100), uint64(3))
	f.Add("torus:3", int64(125), uint64(4))
	f.Add("gnp:0.5000", int64(1)<<40, uint64(5))
	f.Fuzz(func(t *testing.T, spec string, n int64, seed uint64) {
		canon, err := Canonical(spec, n)
		if err != nil || n > 256 {
			return
		}
		if again, err := Canonical(canon, n); err != nil || again != canon {
			t.Fatalf("Canonical(%q, %d) = %q, whose own canonical form is %q, %v", spec, n, canon, again, err)
		}
		g, err := BuildSource(spec, n, rng.New(seed), BuildOpts{})
		if err != nil {
			t.Fatalf("BuildSource(%q, %d): %v", spec, n, err)
		}
		c, err := BuildSource(canon, n, rng.New(seed), BuildOpts{})
		if err != nil {
			t.Fatalf("BuildSource(%q, %d): %v", canon, n, err)
		}
		if g.N() != n {
			t.Fatalf("%q: built %d vertices, want %d", spec, g.N(), n)
		}
		sourcesAgree(t, spec+" vs "+canon, g, c)
		for v := int64(0); v < n; v++ {
			for i := int64(0); i < g.Degree(v); i++ {
				if u := g.Neighbor(v, i); u < 0 || u >= n {
					t.Fatalf("%q: neighbor %d of vertex %d is %d, outside [0, %d)", spec, i, v, u, n)
				}
			}
		}
	})
}
