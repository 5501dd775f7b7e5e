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
func ReadBinary(r ByteReader) (*Graph, error) {
	n, err := readCount(r, "vertex count")
	if err != nil {
		return nil, err
	}
	g := &Graph{}
	for v := 0; v < n; v++ {
		l, err := readLabel(r)
		if err != nil {
			return nil, fmt.Errorf("graph: vertex %d: %w", v, err)
		}
		g.AddVertex(l)
	}
	m, err := readCount(r, "edge count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		u, err := readCount(r, "edge endpoint")
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		v, err := readCount(r, "edge endpoint")
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		l, err := readLabel(r)
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		if err := g.AddEdge(u, v, l); err != nil {
			return nil, err
		}
	}
	return g, nil
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
