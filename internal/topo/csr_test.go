package topo

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"plurality/internal/rng"
)

// checkCSR verifies the structural invariants every CSR in this package
// must satisfy: well-formed offsets, sorted rows, in-range neighbors, no
// self-loops, symmetry (u in v's row iff v in u's row, with multiplicity),
// and — because every generator produces simple graphs — no duplicate row
// entries. Returns the degree sum for handshake checks.
func checkCSR(t *testing.T, g *CSR) int64 {
	t.Helper()
	n := g.N()
	if g.Offsets[0] != 0 || g.Offsets[n] != int64(len(g.Neighbors)) {
		t.Fatalf("offsets endpoints: [%d, %d], want [0, %d]", g.Offsets[0], g.Offsets[n], len(g.Neighbors))
	}
	var degreeSum int64
	for v := int64(0); v < n; v++ {
		row := g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
		degreeSum += int64(len(row))
		if !slices.IsSorted(row) {
			t.Fatalf("row %d not sorted", v)
		}
		for i, w := range row {
			u := int64(w)
			if u < 0 || u >= n {
				t.Fatalf("vertex %d: neighbor %d out of range", v, u)
			}
			if u == v {
				t.Fatalf("vertex %d has a self-loop", v)
			}
			if i > 0 && row[i-1] == w {
				t.Fatalf("vertex %d has duplicate neighbor %d", v, u)
			}
			// Symmetry: v must appear in u's row.
			urow := g.Neighbors[g.Offsets[u]:g.Offsets[u+1]]
			if _, found := slices.BinarySearch(urow, int32(v)); !found {
				t.Fatalf("edge {%d,%d} missing its mirror", v, u)
			}
		}
	}
	if degreeSum%2 != 0 {
		t.Fatalf("handshake violated: degree sum %d is odd", degreeSum)
	}
	if degreeSum != 2*g.Edges() {
		t.Fatalf("degree sum %d != 2·edges %d", degreeSum, 2*g.Edges())
	}
	return degreeSum
}

// sortedCSR materializes an implicit source with its rows sorted, the
// canonical layout checkCSR verifies.
func sortedCSR(t *testing.T, src NeighborSource) *CSR {
	t.Helper()
	g, err := MaterializeCSR(src.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(g)
	return g
}

// connected reports whether the graph is connected (BFS from 0).
func connected(g NeighborSource) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := []int64{0}
	seen[0] = true
	visited := int64(1)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for i := int64(0); i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			if !seen[u] {
				seen[u] = true
				visited++
				queue = append(queue, u)
			}
		}
	}
	return visited == n
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("triangle+leaf", 4)
	b.AddEdge(2, 1) // any insertion order
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(3, 0)
	g := b.Finalize()
	checkCSR(t, g)
	wantDeg := []int64{3, 2, 2, 1}
	for v, want := range wantDeg {
		if got := g.Degree(int64(v)); got != want {
			t.Errorf("degree(%d) = %d, want %d", v, got, want)
		}
	}
	if got := g.Neighbors[g.Offsets[0]:g.Offsets[1]]; !slices.Equal(got, []int32{1, 2, 3}) {
		t.Errorf("row 0 = %v, want [1 2 3]", got)
	}
	if g.Edges() != 4 {
		t.Errorf("edges = %d, want 4", g.Edges())
	}
}

func TestBuilderCanonicalAcrossInsertionOrder(t *testing.T) {
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	b1 := NewBuilder("g", 4)
	for _, e := range edges {
		b1.AddEdge(e[0], e[1])
	}
	b2 := NewBuilder("g", 4)
	for i := len(edges) - 1; i >= 0; i-- {
		b2.AddEdge(edges[i][1], edges[i][0]) // reversed order and endpoints
	}
	g1, g2 := b1.Finalize(), b2.Finalize()
	if !slices.Equal(g1.Offsets, g2.Offsets) || !slices.Equal(g1.Neighbors, g2.Neighbors) {
		t.Fatal("CSR bytes depend on edge insertion order")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	NewBuilder("bad", 3).AddEdge(1, 1)
}

func TestCSRSerializationRoundTrip(t *testing.T) {
	for _, g := range []*CSR{
		RandomRegular("regular:4", 50, 4, rng.New(3)),
		Gnp("gnp:0.1", 40, 0.1, rng.New(4)),
		NewBuilder("empty", 7).Finalize(),
	} {
		var buf bytes.Buffer
		wrote, err := g.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", g.GraphName, err)
		}
		if wrote != int64(buf.Len()) {
			t.Fatalf("%s: WriteTo reported %d bytes, wrote %d", g.GraphName, wrote, buf.Len())
		}
		got, err := ReadCSR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadCSR: %v", g.GraphName, err)
		}
		if got.GraphName != g.GraphName ||
			!slices.Equal(got.Offsets, g.Offsets) || !slices.Equal(got.Neighbors, g.Neighbors) {
			t.Fatalf("%s: round trip changed the graph", g.GraphName)
		}
		// Serialized bytes are canonical: re-serializing reproduces them.
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: serialization not canonical", g.GraphName)
		}
	}
}

func TestReadCSRRejectsCorruption(t *testing.T) {
	g := RandomRegular("regular:4", 20, 4, rng.New(5))
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("WRONGMAG"), full[8:]...),
		"truncated":   full[:len(full)-9],
		"extra short": full[:12],
	}
	// Out-of-range neighbor: flip a neighbor to a huge value (last 8
	// bytes encode the final neighbor).
	corrupt := slices.Clone(full)
	corrupt[len(corrupt)-1] = 0x7f
	cases["neighbor out of range"] = corrupt
	cases["non-minimal varint"] = nonMinimalHeader(full)
	// A header that claims the largest graph the format allows, followed
	// by a few words: sized from the header, the arrays would take 16 GiB
	// and 4 TiB.
	huge := csrHeader{"huge", MaxBuilderN - 1, 1 << 40}.appendTo(nil)
	cases["huge claim, short input"] = append(huge, make([]byte, 64)...)
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadCSR(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: ReadCSR accepted corrupted input", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: ReadCSR allocated %d bytes for a %d-byte input", name, grew, len(data))
		}
	}
}

// nonMinimalHeader re-encodes a serialized graph's one-byte name length
// as the two-byte varint [L|0x80, 0x00]: the same value, one byte longer,
// with the array words unchanged, so only the header's encoding is wrong.
func nonMinimalHeader(file []byte) []byte {
	at := len(csrMagic)
	out := slices.Clone(file[:at])
	out = append(out, file[at]|0x80, 0)
	return append(out, file[at+1:]...)
}

// TestWriteToBytesPinned pins the SHA-256 of the serialized bytes of one
// generated graph per CSR producer — the regular pairing generator, the
// Builder (smallworld, gnp, ba), Barbell and MaterializeCSR (a torus) — at
// the values files written before neighbor ids were held as int32 have.
// Cache files on disk therefore keep opening, and ReadCSR reproduces each
// graph exactly.
func TestWriteToBytesPinned(t *testing.T) {
	for _, tc := range []struct{ spec, sha string }{
		{"regular:8", "550bc7e0e2aa53dee061d1a716bff127f59d77201379c62cf9227b4606f06704"},
		{"smallworld:8:0.1", "c5d5054e2d98860daf77865fc4b50d1b7bf6e15dd3a3e169909ddb4a8e9144f7"},
		{"barbell:4", "45abd4901258e1e6cb36941177db0012fb28ebe333c0dba540641449f16e6e78"},
		{"gnp:0.01", "4f91f087ff35d65c9d32128d6d7c4600101d104ddf536306635ce4bfc2e559af"},
		{"ba:3", "60662076e7d89edf7faa87a49d5d3158dd32339cb51cc2856a5094219d8043df"},
		{"torus", "32a1e48232be8456e8544fd247b83cc06e651653e9aad02ad3e8bba99afbc4ac"},
	} {
		src, err := BuildSource(tc.spec, 4096, rng.New(2026), BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := buildCSR(tc.spec, src)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha {
			t.Errorf("%s: WriteTo SHA-256 %s, want %s", tc.spec, got, tc.sha)
		}
		back, err := ReadCSR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadCSR: %v", tc.spec, err)
		}
		if !slices.Equal(back.Offsets, g.Offsets) || !slices.Equal(back.Neighbors, g.Neighbors) {
			t.Errorf("%s: ReadCSR changed the graph", tc.spec)
		}
	}
}

// TestSort8MatchesSort requires sort8 to agree with slices.Sort on every
// 0/1 row (by the 0-1 principle, a network that sorts these sorts all
// rows) and on 10⁵ random rows drawn with repeats and with the ids 0 and
// MaxBuilderN-1.
func TestSort8MatchesSort(t *testing.T) {
	check := func(row [8]int32) {
		t.Helper()
		got, want := row, row
		sort8(&got)
		slices.Sort(want[:])
		if got != want {
			t.Fatalf("sort8(%v) = %v, want %v", row, got, want)
		}
	}
	for bits := 0; bits < 1<<8; bits++ {
		var row [8]int32
		for i := range row {
			row[i] = int32(bits >> i & 1)
		}
		check(row)
	}
	r := rng.New(8)
	for trial := 0; trial < 100_000; trial++ {
		// Draw from a small pool half the time, so rows repeat ids.
		bound := MaxBuilderN
		if trial%2 == 0 {
			bound = 1 + r.Int63n(8)
		}
		var row [8]int32
		for i := range row {
			switch r.Intn(8) {
			case 0:
				row[i] = 0
			case 1:
				row[i] = int32(MaxBuilderN - 1)
			default:
				row[i] = int32(r.Int63n(bound))
			}
		}
		check(row)
	}
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildAllocatesInt32Layout bounds what building a CSR allocates by
// its int32 layout: 4 bytes per adjacency entry and 8 per offset, plus
// the producer's own int32 scratch and 1/8 of the neighbor array as slack.
// An int64 neighbor array, or an int64 one narrowed into an int32 copy,
// costs at least 4 bytes per entry more, twice the slack.
func TestBuildAllocatesInt32Layout(t *testing.T) {
	const n = 1 << 16
	const nnz = 8 * n
	const slack = 4 * nnz / 8
	offsets := uint64(8 * (n + 1))

	// regular:8: the neighbor array, the stub array (4 bytes per entry)
	// and the int32 cursor (4 per vertex).
	var g NeighborSource
	grew := allocated(func() {
		var err error
		g, err = BuildSource("regular:8", n, rng.New(1), BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	if csr := g.(*CSR); len(csr.Neighbors) != nnz {
		t.Fatalf("regular:8 has %d entries, want %d", len(csr.Neighbors), nnz)
	}
	if budget := 4*nnz + 4*nnz + 4*n + offsets + slack; grew > budget {
		t.Errorf("building regular:8 at n=%d allocated %d bytes, budget %d", n, grew, budget)
	}

	// Builder.Finalize: the neighbor array, the offsets and the int32
	// cursor; the edge list was allocated before the call.
	b := NewBuilder("ring8", n)
	for v := int64(0); v < n; v++ {
		for j := int64(1); j <= 4; j++ {
			b.AddEdge(v, (v+j)%n)
		}
	}
	var csr *CSR
	grew = allocated(func() { csr = b.Finalize() })
	if len(csr.Neighbors) != nnz {
		t.Fatalf("ring8 has %d entries, want %d", len(csr.Neighbors), nnz)
	}
	if budget := 4*nnz + 4*n + offsets + slack; grew > budget {
		t.Errorf("Builder.Finalize at n=%d allocated %d bytes, budget %d", n, grew, budget)
	}
}
