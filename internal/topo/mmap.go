package topo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// MappedCSR is a read-only CSR served straight from an on-disk file in the
// WriteTo/ReadCSR binary format, memory-mapped instead of deserialized:
// opening a multi-gigabyte graph touches only the header, and a round's
// neighbor reads fault pages in on demand, so resident memory tracks the
// working set rather than the file size. This is the beyond-RAM backend —
// a graph too big to hold as heap arrays still serves its neighbor reads
// at page-cache speed.
//
// The arrays are accessed through little-endian byte views rather than
// []int64 casts: the v1 header is variable-length (uvarint name), so the
// arrays have no alignment guarantee inside the mapping, and byte-wise
// loads are alignment-safe on every platform. Each access costs a couple
// of bounds-checked loads more than the in-RAM flat path. A mapped graph
// enumerates every row exactly as the same graph deserialized with
// ReadCSR, so the engine's draws resolve identically and seeded runs are
// byte-identical in traces.
//
// A MappedCSR must be Closed when done (unmapping the file); using it
// after Close panics on the nil views. It is safe for concurrent readers,
// like the in-RAM CSR.
type MappedCSR struct {
	name string
	n    int64
	nnz  int64
	// offs holds Offsets[1:] (8n bytes), nbrs the neighbor array (8nnz
	// bytes); both are subslices of the mapping (or heap copy on
	// platforms without mmap).
	offs    []byte
	nbrs    []byte
	unmap   func() error
	mapping []byte
	// uniform is the common row width when every vertex has the same
	// positive degree, else 0; computed during OpenCSR's validation scan.
	uniform int64
}

var _ NeighborSource = (*MappedCSR)(nil)

// Name implements NeighborSource.
func (m *MappedCSR) Name() string { return m.name }

// N implements NeighborSource.
func (m *MappedCSR) N() int64 { return m.n }

// Edges returns the number of undirected edges.
func (m *MappedCSR) Edges() int64 { return m.nnz / 2 }

// off returns Offsets[i]; the stored array omits the leading zero.
func (m *MappedCSR) off(i int64) int64 {
	if i == 0 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(m.offs[8*(i-1):]))
}

// Degree implements NeighborSource.
func (m *MappedCSR) Degree(v int64) int64 { return m.off(v+1) - m.off(v) }

// Neighbor implements NeighborSource.
func (m *MappedCSR) Neighbor(v, i int64) int64 {
	return int64(binary.LittleEndian.Uint64(m.nbrs[8*(m.off(v)+i):]))
}

// UniformDegree implements the degree-class hint, answered for free from
// the offsets scan OpenCSR performs at open time.
func (m *MappedCSR) UniformDegree() int64 { return m.uniform }

// ResolveBlock implements BlockResolver: it finds each vertex's row once,
// at v·d when every row has width d (no offset read at all) and by one
// offset read otherwise, and resolves the vertex's h draws against it.
func (m *MappedCSR) ResolveBlock(v0 int64, h int, draws []int64) {
	v := v0
	for p := 0; p < len(draws); p += h {
		lo := v * m.uniform
		if m.uniform == 0 {
			lo = m.off(v)
		}
		blk := draws[p : p+h]
		for s, i := range blk {
			blk[s] = int64(binary.LittleEndian.Uint64(m.nbrs[8*(lo+i):]))
		}
		v++
	}
}

// Close unmaps the file. Idempotent; the graph must not be used afterwards.
func (m *MappedCSR) Close() error {
	if m.mapping == nil && m.unmap == nil {
		return nil
	}
	m.offs, m.nbrs, m.mapping = nil, nil, nil
	u := m.unmap
	m.unmap = nil
	if u != nil {
		return u()
	}
	return nil
}

// maxHeaderLen bounds the v1 header: magic + uvarint name length (<= 3
// bytes for the 2^16 cap) + name + two uvarints (<= 10 bytes each).
const maxHeaderLen = len(csrMagic) + 3 + 1<<16 + 10 + 10

// OpenCSR memory-maps a CSR file written by WriteTo (e.g. via
// WriteCSRFile) and validates it as strictly as ReadCSR: magic and header
// bounds, exact file size (a truncated or padded file is an error, never a
// later fault), nondecreasing offsets, and in-range neighbor ids. The
// validation scans are sequential reads over the mapping — the one full
// pass the open pays so that stepping can trust every row.
func OpenCSR(path string) (*MappedCSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	head := make([]byte, min(size, int64(maxHeaderLen)))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("topo: reading %s header: %w", path, err)
	}
	br := &byteReader{r: bytes.NewReader(head)}
	h, err := readCSRHeader(br)
	if err != nil {
		return nil, fmt.Errorf("topo: %s: %w", path, err)
	}
	name, n, nnz, headerLen := h.name, h.n, h.nnz, br.n
	want := headerLen + 8*(n+nnz)
	if size != want {
		return nil, fmt.Errorf("topo: %s is %d bytes, want %d for n=%d nnz=%d (truncated or trailing junk)", path, size, want, n, nnz)
	}
	data, unmap, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("topo: mapping %s: %w", path, err)
	}
	m := &MappedCSR{
		name:    name,
		n:       n,
		nnz:     nnz,
		offs:    data[headerLen : headerLen+8*n],
		nbrs:    data[headerLen+8*n : want],
		unmap:   unmap,
		mapping: data,
	}
	m.uniform = m.off(1) // candidate common degree; zeroed on any mismatch
	for v := int64(0); v < n; v++ {
		lo, hi := m.off(v), m.off(v+1)
		if hi < lo || hi > nnz {
			m.Close()
			return nil, fmt.Errorf("topo: %s: offsets not nondecreasing at vertex %d", path, v)
		}
		if hi-lo != m.uniform {
			m.uniform = 0
		}
	}
	if m.off(n) != nnz {
		m.Close()
		return nil, fmt.Errorf("topo: %s: offsets end at %d, want %d", path, m.off(n), nnz)
	}
	for i := int64(0); i < nnz; i++ {
		if u := int64(binary.LittleEndian.Uint64(m.nbrs[8*i:])); u < 0 || u >= n {
			m.Close()
			return nil, fmt.Errorf("topo: %s: neighbor %d out of range [0, %d)", path, u, n)
		}
	}
	return m, nil
}

// WriteCSRFile serializes g to path atomically: the bytes land in a
// same-directory temp file which is fsynced and renamed into place, so a
// crash mid-build never leaves a torn file for a later OpenCSR to trip
// over — it leaves either the old file or none.
func WriteCSRFile(g *CSR, path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := g.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
