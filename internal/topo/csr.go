// Package topo is the topology subsystem: the NeighborSource contract the
// graph engine samples through, a compressed-sparse-row graph store (CSR)
// with an mmap-backed twin, implicit O(1)-memory families (the paper's
// clique, cycle, star, torus, hypercube), a generator suite covering the
// expansion spectrum from the clique down to bottleneck graphs, and a
// single name→constructor registry that every surface (cmd/sweep,
// internal/service, cmd/validate, examples/topologies) resolves topology
// specs through.
//
// CSR is the backbone for materialized graphs: neighbors live in one flat
// int32 array (MaxBuilderN = 2³¹ bounds every vertex id) indexed by a flat
// int64 offset array, so degree lookup is O(1), neighbor scans are
// cache-linear at 4 bytes per entry, and the whole structure serializes to
// disk (WriteTo/ReadCSR, one 8-byte word per entry) so an expensive
// generated graph is buildable once and reusable across sweep cells. The
// engine layer (engine.GraphEngine) special-cases *CSR with a direct-slice
// sampling path; the rng draw sequence (one Int63n(degree) per sample) is
// byte-identical to its generic NeighborSource path.
//
// All generators draw exclusively from an explicit *rng.Rand, so every
// graph is a pure function of (spec, n, seed): byte-identical across runs,
// machines, and worker counts.
package topo

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// CSR is a static undirected graph in compressed-sparse-row form: the
// neighbors of vertex v are Neighbors[Offsets[v]:Offsets[v+1]]. Each
// undirected edge {a, b} appears twice (b in a's row and a in b's row), so
// len(Neighbors) is twice the edge count and the handshake identity
// Σ degree(v) = len(Neighbors) holds by construction. Neighbor ids are
// 32-bit because a CSR has fewer than MaxBuilderN = 2³¹ vertices; offsets
// stay 64-bit, since the entry count is bounded only by memory. The
// NeighborSource methods take and return int64 ids like every other
// source.
type CSR struct {
	// GraphName is the registry spec the graph was built from (e.g.
	// "regular:8", "smallworld:10:0.1"); it identifies the topology in
	// engine names and experiment tables.
	GraphName string
	// Offsets has length N()+1 with Offsets[0] = 0, nondecreasing.
	Offsets []int64
	// Neighbors holds the concatenated adjacency rows, each id in
	// [0, N()): sorted for generator-built graphs, in enumeration order
	// for a materialized source (see MaterializeCSR).
	Neighbors []int32
}

var _ NeighborSource = (*CSR)(nil)

// Name implements NeighborSource.
func (g *CSR) Name() string { return g.GraphName }

// N implements NeighborSource.
func (g *CSR) N() int64 { return int64(len(g.Offsets)) - 1 }

// Degree implements NeighborSource.
func (g *CSR) Degree(v int64) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Neighbor implements NeighborSource.
func (g *CSR) Neighbor(v, i int64) int64 { return int64(g.Neighbors[g.Offsets[v]+i]) }

// Edges returns the number of undirected edges.
func (g *CSR) Edges() int64 { return int64(len(g.Neighbors)) / 2 }

// MaxBuilderN bounds builder vertex counts so edge endpoints pack into one
// uint64 (and so a single graph cannot address more than 2^31 vertices —
// far beyond the memory any materialized topology fits in anyway).
const MaxBuilderN = int64(1) << 31

// Builder accumulates an undirected edge stream and finalizes it into a
// CSR in two counting passes (no per-vertex slice allocations). Edges may
// arrive in any order; Finalize sorts each adjacency row, so the resulting
// bytes depend only on the edge multiset.
type Builder struct {
	name  string
	n     int64
	edges []uint64 // packed a<<32 | b
}

// NewBuilder returns a builder for a graph on n vertices (n in
// [1, MaxBuilderN)).
func NewBuilder(name string, n int64) *Builder {
	if n < 1 || n >= MaxBuilderN {
		panic(fmt.Sprintf("topo: Builder needs 1 <= n < 2^31, got %d", n))
	}
	return &Builder{name: name, n: n}
}

// Grow reserves capacity for m additional edges.
func (b *Builder) Grow(m int) { b.edges = slices.Grow(b.edges, m) }

// AddEdge records the undirected edge {x, y}. Self-loops and out-of-range
// endpoints panic: every generator in this package produces simple graphs,
// so a loop reaching the builder is a generator bug, not an input error.
func (b *Builder) AddEdge(x, y int64) {
	if x == y {
		panic("topo: Builder rejects self-loops")
	}
	if x < 0 || y < 0 || x >= b.n || y >= b.n {
		panic(fmt.Sprintf("topo: edge {%d, %d} out of range [0, %d)", x, y, b.n))
	}
	b.edges = append(b.edges, uint64(x)<<32|uint64(y))
}

// Len returns the number of edges recorded so far.
func (b *Builder) Len() int { return len(b.edges) }

// Finalize builds the CSR. The builder must not be reused afterwards.
func (b *Builder) Finalize() *CSR {
	offsets := make([]int64, b.n+1)
	for _, e := range b.edges {
		offsets[e>>32+1]++
		offsets[uint32(e)+1]++
	}
	for v := int64(0); v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	neighbors := make([]int32, offsets[b.n])
	cursor := make([]int32, b.n) // a row's degree, below n < 2^31 in a simple graph
	for _, e := range b.edges {
		x, y := int32(e>>32), int32(uint32(e))
		neighbors[offsets[x]+int64(cursor[x])] = y
		cursor[x]++
		neighbors[offsets[y]+int64(cursor[y])] = x
		cursor[y]++
	}
	b.edges = nil
	g := &CSR{GraphName: b.name, Offsets: offsets, Neighbors: neighbors}
	sortRows(g)
	return g
}

// sortRows sorts each adjacency row ascending: the canonical on-disk and
// in-memory layout, independent of edge insertion order. An 8-entry row
// (every row of regular:8, about half of smallworld:8:0.1's) goes through
// sort8, rows of other lengths through slices.Sort; both leave the same
// bytes.
func sortRows(g *CSR) {
	n := g.N()
	for v := int64(0); v < n; v++ {
		row := g.Neighbors[g.Offsets[v]:g.Offsets[v+1]]
		if len(row) == 8 {
			sort8((*[8]int32)(row))
		} else {
			slices.Sort(row)
		}
	}
}

// sort8 sorts r ascending with the 19-comparator, depth-6 sorting network
// for 8 inputs (Knuth, TAOCP vol. 3, §5.3.4). Each comparator is a
// min/max pair, which compiles to conditional moves, so the row costs no
// data-dependent branch; an insertion sort of random ids mispredicts
// about once per entry.
func sort8(r *[8]int32) {
	a0, a1, a2, a3, a4, a5, a6, a7 := r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
	a0, a2 = min(a0, a2), max(a0, a2)
	a1, a3 = min(a1, a3), max(a1, a3)
	a4, a6 = min(a4, a6), max(a4, a6)
	a5, a7 = min(a5, a7), max(a5, a7)
	a0, a4 = min(a0, a4), max(a0, a4)
	a1, a5 = min(a1, a5), max(a1, a5)
	a2, a6 = min(a2, a6), max(a2, a6)
	a3, a7 = min(a3, a7), max(a3, a7)
	a0, a1 = min(a0, a1), max(a0, a1)
	a2, a3 = min(a2, a3), max(a2, a3)
	a4, a5 = min(a4, a5), max(a4, a5)
	a6, a7 = min(a6, a7), max(a6, a7)
	a2, a4 = min(a2, a4), max(a2, a4)
	a3, a5 = min(a3, a5), max(a3, a5)
	a1, a4 = min(a1, a4), max(a1, a4)
	a3, a6 = min(a3, a6), max(a3, a6)
	a1, a2 = min(a1, a2), max(a1, a2)
	a3, a4 = min(a3, a4), max(a3, a4)
	a5, a6 = min(a5, a6), max(a5, a6)
	r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = a0, a1, a2, a3, a4, a5, a6, a7
}

// ----- binary serialization -----

// csrMagic versions the on-disk format: magic, name (uvarint length +
// bytes), n and nnz (uvarint), then Offsets[1:] and Neighbors as
// little-endian uint64s. Offsets[0] is always 0 and is not stored. A
// neighbor id takes a full word on disk although CSR holds it as an
// int32: WriteTo widens each id as it writes and ReadCSR narrows each
// checked word as it reads, so the format, and every file in it, is
// independent of the in-memory width.
const csrMagic = "topoCSR1"

// ioChunk is the staging-buffer size, in words, for (de)serializing the
// arrays.
const ioChunk = 8192

// csrHeader is a decoded topoCSR1 header.
type csrHeader struct {
	name   string
	n, nnz int64
}

// appendTo appends the header's encoding, the one WriteTo writes.
func (h csrHeader) appendTo(dst []byte) []byte {
	dst = append(dst, csrMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(h.name)))
	dst = append(dst, h.name...)
	dst = binary.AppendUvarint(dst, uint64(h.n))
	return binary.AppendUvarint(dst, uint64(h.nnz))
}

// WriteTo implements io.WriterTo: the exact bytes are a pure function of
// the CSR contents, so serialized graphs are content-addressable.
func (g *CSR) WriteTo(w io.Writer) (int64, error) {
	var total int64
	wr := func(p []byte) error {
		m, err := w.Write(p)
		total += int64(m)
		return err
	}
	h := csrHeader{g.GraphName, g.N(), int64(len(g.Neighbors))}
	if err := wr(h.appendTo(nil)); err != nil {
		return total, err
	}
	if err := writeWords(wr, g.Offsets[1:]); err != nil {
		return total, err
	}
	err := writeWords(wr, g.Neighbors)
	return total, err
}

// writeWords writes arr through wr as little-endian uint64s, widening each
// element on its own, in chunks of ioChunk words.
func writeWords[T int32 | int64](wr func([]byte) error, arr []T) error {
	buf := make([]byte, 0, 8*ioChunk)
	for _, v := range arr {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		if len(buf) == cap(buf) {
			if err := wr(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return wr(buf)
}

// ReadCSR deserializes a CSR written by WriteTo, validating the header and
// the structural invariants (nondecreasing offsets, in-range neighbors)
// word by word, so a truncated or corrupted input is an error, never a
// later panic. The arrays grow as their bytes arrive instead of being
// sized from the header, so a short input that claims a huge graph fails
// at its end without allocating what it claims. ReadCSR reads no byte
// past the graph.
func ReadCSR(r io.Reader) (*CSR, error) {
	br := &byteReader{r: r}
	h, err := readCSRHeader(br)
	if err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	n, nnz := h.n, h.nnz
	prev := int64(0)
	offsets, err := readWords(br, []int64{0}, n, func(v int64, w uint64) (int64, error) {
		if w > uint64(nnz) || int64(w) < prev {
			return 0, fmt.Errorf("offsets not nondecreasing at vertex %d", v)
		}
		prev = int64(w)
		return prev, nil
	})
	if err != nil {
		return nil, fmt.Errorf("topo: reading offsets: %w", err)
	}
	if offsets[n] != nnz {
		return nil, fmt.Errorf("topo: offsets end at %d, want %d", offsets[n], nnz)
	}
	neighbors, err := readWords(br, nil, nnz, func(_ int64, w uint64) (int32, error) {
		if w >= uint64(n) {
			return 0, fmt.Errorf("neighbor %d out of range [0, %d)", int64(w), n)
		}
		return int32(w), nil
	})
	if err != nil {
		return nil, fmt.Errorf("topo: reading neighbors: %w", err)
	}
	return &CSR{GraphName: h.name, Offsets: offsets, Neighbors: neighbors}, nil
}

// readWords appends count little-endian uint64 words from r to dst, each
// checked and narrowed by conv (which gets the word's index), reading
// ioChunk words at a time. dst grows as the words arrive, doubling up to
// what count still needs, never to count at once.
func readWords[T int32 | int64](r io.Reader, dst []T, count int64, conv func(i int64, w uint64) (T, error)) ([]T, error) {
	buf := make([]byte, 8*ioChunk)
	for done := int64(0); done < count; {
		m := min(count-done, ioChunk)
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			return nil, err
		}
		if int64(cap(dst)-len(dst)) < m {
			dst = slices.Grow(dst, int(min(count-done, max(m, int64(len(dst))))))
		}
		for j := int64(0); j < m; j++ {
			x, err := conv(done+j, binary.LittleEndian.Uint64(buf[8*j:]))
			if err != nil {
				return nil, err
			}
			dst = append(dst, x)
		}
		done += m
	}
	return dst, nil
}

// readCSRHeader decodes a topoCSR1 header from br, applying the format's
// bounds: a name of at most 2^16 bytes, 1 <= n < MaxBuilderN and
// nnz <= 2^40. It accepts only the encoding csrHeader.appendTo writes
// (minimal varints), so every accepted file is the one WriteTo writes for
// its graph. ReadCSR and OpenCSR both parse through it.
func readCSRHeader(br *byteReader) (csrHeader, error) {
	start := br.n
	magic := make([]byte, len(csrMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return csrHeader{}, fmt.Errorf("reading magic: %w", err)
	}
	if string(magic) != csrMagic {
		return csrHeader{}, fmt.Errorf("bad magic %q (not a %s file)", magic, csrMagic)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 1<<16 {
		return csrHeader{}, fmt.Errorf("bad name length (%v)", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return csrHeader{}, fmt.Errorf("reading name: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil || n < 1 || n >= uint64(MaxBuilderN) {
		return csrHeader{}, fmt.Errorf("bad vertex count (%v)", err)
	}
	nnz, err := binary.ReadUvarint(br)
	if err != nil || nnz > 1<<40 {
		return csrHeader{}, fmt.Errorf("bad neighbor count (%v)", err)
	}
	h := csrHeader{string(name), int64(n), int64(nnz)}
	if got, want := br.n-start, int64(len(h.appendTo(nil))); got != want {
		return csrHeader{}, fmt.Errorf("non-minimal header varint (%d header bytes, want %d)", got, want)
	}
	return h, nil
}

// byteReader adapts any reader for binary.ReadUvarint without buffering
// past the varint (a bufio.Reader would swallow bytes the array reads
// need), and counts the bytes it has passed on.
type byteReader struct {
	r io.Reader
	n int64
}

func (b *byteReader) Read(p []byte) (int, error) {
	m, err := b.r.Read(p)
	b.n += int64(m)
	return m, err
}

func (b *byteReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	b.n++
	return one[0], nil
}
