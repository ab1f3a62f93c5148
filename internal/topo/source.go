package topo

import "fmt"

// NeighborSource is the engine↔topology contract: the adjacency a graph
// engine samples neighbors from. Implicit families, in-RAM CSRs and
// mmap-backed CSRs all implement it, and a source only describes
// adjacency: the graph engine owns the draw (one Int63n(Degree(v)) per
// sample resolved through Neighbor, none for an isolated vertex, which
// samples itself). Two sources that agree on (N, Degree, Neighbor)
// therefore yield byte-identical seeded runs, whichever representation
// backs them — in-RAM CSR, mmap, or a pure function.
type NeighborSource interface {
	// Name identifies the topology in engine names and experiment tables.
	Name() string
	// N is the number of vertices.
	N() int64
	// Degree returns the number of neighbors of u.
	Degree(u int64) int64
	// Neighbor returns the i-th neighbor of u, 0 <= i < Degree(u). The
	// enumeration order is part of the byte contract: draw i of u
	// resolves to Neighbor(u, i), so backends of the same topology must
	// enumerate identically.
	Neighbor(u, i int64) int64
}

// UniformDegree is the optional degree-class hint: a source whose vertices
// all share one positive degree returns it, and the engine's bucketed hot
// loops hoist the per-vertex degree load, the zero-degree branch, and the
// rng rejection threshold out of the sampling loop: they draw a whole
// block with one dist.FillUniform(degree) and resolve it through the
// source's BlockResolver (see Resolver). Return 0 when degrees vary (or
// are unknown) — the hint must never overclaim, as the bucketed loops
// draw and index rows by the advertised width. Implicit regular families
// (torus, hypercube, cycle) answer in O(1); mmap CSRs answer from the scan
// OpenCSR already pays; for an in-RAM *CSR the engine derives the hint
// itself from the offset array.
type UniformDegree interface {
	UniformDegree() int64
}

// BlockResolver is the optional bulk form of Neighbor, for a source whose
// per-sample Neighbor repeats work that consecutive vertices share.
// ResolveBlock reads draws as h draws per vertex for the vertices v0,
// v0+1, … in order (len(draws) a multiple of h, h >= 1) and replaces each
// draw i of vertex v with Neighbor(v, i). It must equal Neighbor for every
// draw in [0, Degree(v)), read no rng, and allocate nothing. The graph
// engine calls it on uniform-degree sources after drawing the whole block
// with one dist.FillUniform, which consumes the rng exactly as one
// Int63n(degree) per sample would. TorusD and MappedCSR implement it.
type BlockResolver interface {
	ResolveBlock(v0 int64, h int, draws []int64)
}

// Resolver returns src's own BlockResolver, or else one that resolves each
// draw through src.Neighbor.
func Resolver(src NeighborSource) BlockResolver {
	if b, ok := src.(BlockResolver); ok {
		return b
	}
	return eachNeighbor{src}
}

// eachNeighbor is BlockResolver's contract met one Neighbor call per draw.
type eachNeighbor struct{ NeighborSource }

// ResolveBlock implements BlockResolver.
func (e eachNeighbor) ResolveBlock(v0 int64, h int, draws []int64) {
	v := v0
	for p := 0; p < len(draws); p += h {
		blk := draws[p : p+h]
		for s, i := range blk {
			blk[s] = e.Neighbor(v, i)
		}
		v++
	}
}

// MaterializeCSR materializes any NeighborSource into an in-RAM CSR
// preserving the source's neighbor enumeration order — Neighbor(v, i) of
// the result equals src.Neighbor(v, i) for every (v, i). Rows are NOT
// re-sorted: sorting would reorder the draw-index→neighbor mapping and
// break byte-identity between the implicit and materialized backends of
// the same topology. (Generator-built CSRs sort rows as their canonical
// layout; a materialized implicit family's canonical layout is its
// enumeration order.)
//
// The name becomes the CSR's GraphName (registry callers pass the
// canonical spec). Returns ErrTooLarge when the source exceeds the
// materialized caps (MaxBuilderN vertices, MaxAdjEntries adjacency
// entries).
func MaterializeCSR(name string, src NeighborSource) (*CSR, error) {
	n := src.N()
	if n < 1 || n >= MaxBuilderN {
		return nil, tooLargef("%s: n = %d exceeds the materialized vertex cap [1, 2^31)", name, n)
	}
	offsets := make([]int64, n+1)
	var total int64
	for v := int64(0); v < n; v++ {
		offsets[v] = total
		total += src.Degree(v)
		if total > MaxAdjEntries {
			return nil, tooLargef("%s at n = %d exceeds the %d materialized adjacency-entry cap", name, n, MaxAdjEntries)
		}
	}
	offsets[n] = total
	neighbors := make([]int32, total)
	for v := int64(0); v < n; v++ {
		row := neighbors[offsets[v]:offsets[v+1]]
		for i := range row {
			row[i] = int32(src.Neighbor(v, int64(i))) // an id below n < 2^31
		}
	}
	return &CSR{GraphName: name, Offsets: offsets, Neighbors: neighbors}, nil
}

// CacheFileName is the canonical on-disk file name for a materialized
// topology: a pure function of (canonical spec, n, generator seed), so
// file-backed callers that derive their graph seeds deterministically (e.g.
// cmd/sweep cells) agree on the file without coordination. Characters that
// are awkward in file names (':', '/') map to '_'.
func CacheFileName(canon string, n int64, seed uint64) string {
	safe := make([]byte, 0, len(canon))
	for i := 0; i < len(canon); i++ {
		c := canon[i]
		if c == ':' || c == '/' {
			c = '_'
		}
		safe = append(safe, c)
	}
	return fmt.Sprintf("%s-n%d-g%d.csr", safe, n, seed)
}
