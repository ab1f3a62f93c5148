package topo

import (
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"plurality/internal/rng"
)

// sourcesAgree requires two NeighborSources to describe the identical
// structure: same n, and the same neighbor enumeration row by row (which,
// since the graph engine resolves draw i of v to Neighbor(v, i), implies
// byte-identical seeded runs).
func sourcesAgree(t *testing.T, label string, a, b NeighborSource) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("%s: n mismatch %d vs %d", label, a.N(), b.N())
	}
	for v := int64(0); v < a.N(); v++ {
		da, db := a.Degree(v), b.Degree(v)
		if da != db {
			t.Fatalf("%s: degree(%d) mismatch %d vs %d", label, v, da, db)
		}
		for i := int64(0); i < da; i++ {
			if na, nb := a.Neighbor(v, i), b.Neighbor(v, i); na != nb {
				t.Fatalf("%s: neighbor(%d, %d) mismatch %d vs %d", label, v, i, na, nb)
			}
		}
	}
}

// TestBackendsAgreeOnStructure is backend identity at the topo layer: for
// every implicit family, the implicit source, its materialized CSR, and
// the mmap round-trip of that CSR agree on (N, Degree, Neighbor) — and
// therefore on every seeded run of the graph engine.
func TestBackendsAgreeOnStructure(t *testing.T) {
	cases := []struct {
		spec string
		n    int64
	}{
		{"torus:3", 216}, // 6³
		{"torus", 64},
		{"hypercube", 128},
		{"cycle", 50},
		{"star", 33},
		{"complete", 24},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			imp, err := BuildSource(tc.spec, tc.n, nil, BuildOpts{Mode: ModeImplicit})
			if err != nil {
				t.Fatal(err)
			}
			csr, err := BuildSource(tc.spec, tc.n, nil, BuildOpts{Mode: ModeCSR})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, CacheFileName(tc.spec, tc.n, 1))
			mm, err := BuildSource(tc.spec, tc.n, nil, BuildOpts{Mode: ModeMmap, Path: path})
			if err != nil {
				t.Fatal(err)
			}
			defer mm.(*MappedCSR).Close()

			sourcesAgree(t, "implicit vs csr", imp, csr)
			sourcesAgree(t, "csr vs mmap", csr, mm)
		})
	}
}

// TestMaterializeCSRPreservesEnumerationOrder pins the property backend
// identity rests on: materialization must NOT sort rows — torus neighbor
// enumeration (+1/-1 per dimension) is not ascending, and reordering it
// would remap draw indices to different neighbors.
func TestMaterializeCSRPreservesEnumerationOrder(t *testing.T) {
	src := NewTorusD(216, 3)
	csr, err := MaterializeCSR("torus:3", src)
	if err != nil {
		t.Fatal(err)
	}
	sorted := true
	for v := int64(0); v < csr.N() && sorted; v++ {
		row := csr.Neighbors[csr.Offsets[v]:csr.Offsets[v+1]]
		sorted = slices.IsSorted(row)
	}
	if sorted {
		t.Fatal("every materialized torus row is sorted — enumeration order was not preserved (or the test graph is degenerate)")
	}
	sourcesAgree(t, "torus vs materialized", src, csr)
}

// TestMaterializeCSRCapErrors checks that oversized sources are rejected
// with the typed ErrTooLarge, not a panic or an OOM attempt.
func TestMaterializeCSRCapErrors(t *testing.T) {
	// complete at n=2^15 wants ~2^30 entries > MaxAdjEntries (2^28).
	if _, err := MaterializeCSR("complete", Complete{Vertices: 1 << 15}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("adjacency cap: got %v, want ErrTooLarge", err)
	}
	if _, err := MaterializeCSR("x", Complete{Vertices: MaxBuilderN}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("vertex cap: got %v, want ErrTooLarge", err)
	}
}

// TestBuildSourceModes covers the registry's mode dispatch.
func TestBuildSourceModes(t *testing.T) {
	dir := t.TempDir()

	// auto keeps each family's default representation.
	if src, err := BuildSource("torus", 64, nil, BuildOpts{}); err != nil {
		t.Fatal(err)
	} else if _, isCSR := src.(*CSR); isCSR {
		t.Fatal("auto mode materialized an implicit family")
	}
	if src, err := BuildSource("regular:4", 100, rng.New(3), BuildOpts{Mode: ModeAuto}); err != nil {
		t.Fatal(err)
	} else if _, isCSR := src.(*CSR); !isCSR {
		t.Fatal("auto mode did not build a CSR for a generator family")
	}

	// implicit refuses materialized-only families.
	if _, err := BuildSource("regular:4", 100, rng.New(3), BuildOpts{Mode: ModeImplicit}); err == nil {
		t.Fatal("implicit mode accepted a generator family")
	}

	// csr forces materialization of implicit families.
	if src, err := BuildSource("hypercube", 64, nil, BuildOpts{Mode: ModeCSR}); err != nil {
		t.Fatal(err)
	} else if _, isCSR := src.(*CSR); !isCSR {
		t.Fatal("csr mode did not materialize")
	}

	// mmap without a path is an error.
	if _, err := BuildSource("torus", 64, nil, BuildOpts{Mode: ModeMmap}); err == nil {
		t.Fatal("mmap mode without a path accepted")
	}

	// mmap builds the file once and reuses it; a mismatched reuse is
	// rejected.
	path := filepath.Join(dir, "g.csr")
	m1, err := BuildSource("regular:4", 100, rng.New(3), BuildOpts{Mode: ModeMmap, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	m1.(*MappedCSR).Close()
	m2, err := BuildSource("regular:4", 100, rng.New(3), BuildOpts{Mode: ModeMmap, Path: path})
	if err != nil {
		t.Fatalf("reopening cached mmap file: %v", err)
	}
	m2.(*MappedCSR).Close()
	if _, err := BuildSource("regular:4", 200, rng.New(3), BuildOpts{Mode: ModeMmap, Path: path}); err == nil {
		t.Fatal("mmap mode reused a file holding a different graph")
	}

	// The cached file round-trips the exact structure.
	want, err := BuildSource("regular:4", 100, rng.New(3), BuildOpts{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := OpenCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	sourcesAgree(t, "cached mmap vs rebuilt", want, m3)
}

// TestParseMode checks the user-facing mode strings.
func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"": ModeAuto, "auto": ModeAuto, "implicit": ModeImplicit,
		"csr": ModeCSR, "mmap": ModeMmap,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("ramdisk"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

// TestIsImplicit pins the implicit-family set the service caps key off.
func TestIsImplicit(t *testing.T) {
	for spec, want := range map[string]bool{
		"complete": true, "cycle": true, "star": true, "torus:3": true,
		"hypercube": true, "regular:4": false, "gnp:0.1": false,
		"smallworld:4:0.1": false, "ba:2": false, "sbm:2:0.1:0.01": false,
		"barbell:4": false,
	} {
		got, err := IsImplicit(spec)
		if err != nil || got != want {
			t.Errorf("IsImplicit(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := IsImplicit("nope"); err == nil {
		t.Error("IsImplicit accepted an unknown family")
	}
}

// TestCacheFileName checks sanitization and injectivity-relevant parts.
func TestCacheFileName(t *testing.T) {
	got := CacheFileName("smallworld:8:0.1", 1000, 7)
	want := "smallworld_8_0.1-n1000-g7.csr"
	if got != want {
		t.Errorf("CacheFileName = %q, want %q", got, want)
	}
	if CacheFileName("torus:3", 8, 1) == CacheFileName("torus:3", 8, 2) {
		t.Error("cache names ignore the generator seed")
	}
}

// TestValidateCapMessagesTyped verifies the satellite contract: size-cap
// rejections carry ErrTooLarge and the "materialized" wording, while
// shape errors carry neither.
func TestValidateCapMessagesTyped(t *testing.T) {
	if err := Validate("regular:100", 10_000_000); !errors.Is(err, ErrTooLarge) {
		t.Errorf("adjacency cap rejection not ErrTooLarge: %v", err)
	}
	if err := Validate("smallworld:2:0", 1<<33); !errors.Is(err, ErrTooLarge) {
		t.Errorf("vertex cap rejection not ErrTooLarge: %v", err)
	}
	if err := Validate("hypercube", 1<<32); !errors.Is(err, ErrTooLarge) {
		t.Errorf("hypercube vertex cap rejection not ErrTooLarge: %v", err)
	}
	// Shape errors are NOT too-large: no n fixes a non-power-of-two
	// hypercube or an odd-degree smallworld.
	if err := Validate("hypercube", 100); err == nil || errors.Is(err, ErrTooLarge) {
		t.Errorf("shape rejection mislabeled too-large: %v", err)
	}
	if err := Validate("smallworld:5:0.1", 100); err == nil || errors.Is(err, ErrTooLarge) {
		t.Errorf("parameter rejection mislabeled too-large: %v", err)
	}
	// Implicit families clear validation at n far beyond RAM.
	if err := Validate("torus:3", 1_000_000_000); err != nil {
		t.Errorf("implicit torus rejected at n=10^9: %v", err)
	}
}
