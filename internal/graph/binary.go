package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary codec used by the index segment format and the WAL. The layout
// is a varint stream (unsigned varints for counts and vertex ids, zigzag
// varints for labels, which are int32 and may be negative):
//
//	n                       uvarint, |V|
//	label(v) for v in 0..n  varint
//	m                       uvarint, |E|
//	{u, v, label} per edge  uvarint, uvarint, varint — in Edges() order
//
// The encoding is canonical: Edges() is sorted, so encoding a graph,
// decoding it, and re-encoding yields identical bytes.

// MaxBinaryElems bounds decoded counts (vertices, edges — and, in the
// index persistence layer reading the same byte stream, graphs and
// dimensions) so a corrupt length prefix cannot force a huge allocation.
// 1<<27 is ~3 orders of magnitude above the largest databases this
// repository handles. Exported so every decoder of the stream enforces
// the same limit.
const MaxBinaryElems = 1 << 27

// ByteReader is the reader the binary decoder needs: byte-at-a-time for
// varints plus bulk reads. *bufio.Reader satisfies it, as does the
// checksumming reader in the persistence layer.
type ByteReader interface {
	io.Reader
	io.ByteReader
}

// WriteBinary writes g in the binary form to w. Callers stream many
// graphs through one buffered writer, so w is typically a *bufio.Writer.
func WriteBinary(w io.Writer, g *Graph) error {
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) error {
		_, err := w.Write(buf[:binary.PutUvarint(buf[:], x)])
		return err
	}
	putVarint := func(x int64) error {
		_, err := w.Write(buf[:binary.PutVarint(buf[:], x)])
		return err
	}
	if err := putUvarint(uint64(g.N())); err != nil {
		return err
	}
	for v := 0; v < g.N(); v++ {
		if err := putVarint(int64(g.VertexLabel(v))); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(g.M())); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if err := putUvarint(uint64(e.U)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.V)); err != nil {
			return err
		}
		if err := putVarint(int64(e.Label)); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary decodes one graph written by WriteBinary. Counts, vertex ids
// and labels are validated, so corrupt or truncated input yields an error
// rather than a panic or an oversized allocation.
//
// WriteBinary writes Edges(), which is strictly ascending in normalized
// order, so ReadBinary refuses an edge that is not strictly after the one
// before it (an equal one as a duplicate edge). Edges in that order
// cannot repeat, so no duplicate check is needed, the graph comes back
// sorted, and its labels, Edges() and every Neighbors(v) order equal what
// AddVertex and AddEdge in stream order build. A graph costs five
// allocations whatever its size: the Graph, its labels, its edges, its
// adjacency headers, and one backing of 2m half-edges split per vertex by
// degree. (A count above presizeMax grows as it is read instead, so a
// corrupt count cannot reserve more memory than the input backs.)
func ReadBinary(r ByteReader) (*Graph, error) {
	var d Decoder
	if err := d.decode(r); err != nil {
		return nil, err
	}
	return &Graph{labels: d.labels, edges: d.edges, adj: d.adj, sorted: true}, nil
}

// presizeMax caps the capacity reserved from a decoded count before the
// elements it counts have been read.
const presizeMax = 1 << 12

// A Decoder checks encoded graphs without keeping them. Each Check runs
// the decoder ReadBinary runs into the same reused slices, so it accepts
// exactly what ReadBinary accepts and, once warm, allocates nothing. The
// zero value is ready to use; a Decoder is not safe for concurrent use.
type Decoder struct {
	labels []Label
	edges  []Edge
	adj    [][]Half
	halves []Half // the adjacency backing
}

// Check decodes one graph from r and discards it, returning the error
// ReadBinary would.
func (d *Decoder) Check(r ByteReader) error {
	return d.decode(r)
}

// decode reads one graph into d's slices, reusing their capacity.
func (d *Decoder) decode(r ByteReader) error {
	n, err := readCount(r, "vertex count")
	if err != nil {
		return err
	}
	d.labels = reserve(d.labels, n)
	for v := 0; v < n; v++ {
		l, err := readLabel(r)
		if err != nil {
			return fmt.Errorf("graph: vertex %d: %w", v, err)
		}
		d.labels = append(d.labels, l)
	}
	m, err := readCount(r, "edge count")
	if err != nil {
		return err
	}
	d.edges = reserve(d.edges, m)
	for i := 0; i < m; i++ {
		u, err := readCount(r, "edge endpoint")
		if err != nil {
			return fmt.Errorf("graph: edge %d: %w", i, err)
		}
		v, err := readCount(r, "edge endpoint")
		if err != nil {
			return fmt.Errorf("graph: edge %d: %w", i, err)
		}
		l, err := readLabel(r)
		if err != nil {
			return fmt.Errorf("graph: edge %d: %w", i, err)
		}
		if err := checkEndpoints(u, v, n); err != nil {
			return err
		}
		e := Edge{U: u, V: v, Label: l}.normalize()
		if i > 0 {
			switch p := d.edges[i-1]; {
			case p.U == e.U && p.V == e.V:
				return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
			case p.U > e.U || p.U == e.U && p.V > e.V:
				return fmt.Errorf("graph: edge %d out of order", i)
			}
		}
		d.edges = append(d.edges, e)
	}
	d.splitAdjacency(n)
	return nil
}

// splitAdjacency builds the adjacency lists of d's n vertices in one
// backing of 2m half-edges, each vertex's list clipped to its degree so
// an append to one can never overwrite the next.
func (d *Decoder) splitAdjacency(n int) {
	// n labels were read, so n adjacency headers are backed by input.
	if cap(d.adj) < n {
		d.adj = make([][]Half, n)
	}
	d.adj = d.adj[:n]
	m := len(d.edges)
	if cap(d.halves) < 2*m {
		d.halves = make([]Half, 2*m)
	}
	// Count degrees in the list lengths (every degree fits in the
	// backing), then turn the counts into clipped, empty windows.
	for v := range d.adj {
		d.adj[v] = d.halves[:0]
	}
	for _, e := range d.edges {
		d.adj[e.U] = d.adj[e.U][:len(d.adj[e.U])+1]
		d.adj[e.V] = d.adj[e.V][:len(d.adj[e.V])+1]
	}
	off := 0
	for v, a := range d.adj {
		k := len(a)
		if k == 0 {
			d.adj[v] = nil
			continue
		}
		d.adj[v] = d.halves[off : off : off+k]
		off += k
	}
	for _, e := range d.edges {
		d.adj[e.U] = append(d.adj[e.U], Half{To: e.V, Label: e.Label})
		d.adj[e.V] = append(d.adj[e.V], Half{To: e.U, Label: e.Label})
	}
}

// reserve returns s emptied with room for n elements, reserving at most
// presizeMax before they have been read.
func reserve[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, min(n, presizeMax))
}

func readCount(r ByteReader, what string) (int, error) {
	x, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("graph: reading %s: %w", what, NoEOF(err))
	}
	if x > MaxBinaryElems {
		return 0, fmt.Errorf("graph: %s %d exceeds limit %d", what, x, MaxBinaryElems)
	}
	return int(x), nil
}

func readLabel(r ByteReader) (Label, error) {
	x, err := binary.ReadVarint(r)
	if err != nil {
		return 0, fmt.Errorf("reading label: %w", NoEOF(err))
	}
	if x < math.MinInt32 || x > math.MaxInt32 {
		return 0, fmt.Errorf("label %d outside int32 range", x)
	}
	return Label(x), nil
}

// NoEOF converts a bare EOF in the middle of a record into
// ErrUnexpectedEOF so truncation is reported as corruption, not as a
// clean end of input. Shared with the index persistence layer, which
// decodes the same byte stream.
func NoEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
