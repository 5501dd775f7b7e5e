package graphdim

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/segment"
)

// An index persists in exactly one format: the v4 segment of
// internal/segment (magic "GDIMIDX4"), documented there. WriteTo, store
// checkpoints and replication snapshots all write it; ReadIndex loads it
// onto the heap and a Store serves it mapped in place. Files from the
// v1–v3 generations are refused with an error naming their format: open
// them once with the previous release and checkpoint.

// WriteTo serializes the index as a v4 segment: the selected dimensions
// and weights, every database graph (including tombstoned ids, so ids
// stay stable across a save/load), the tombstone bitmap, the binary
// vectors in scan-kernel layout, and the derived posting lists and zone
// map. It implements io.WriterTo.
//
// WriteTo reads one immutable snapshot, so it may run concurrently with
// queries and updates; updates racing the call are either fully included
// or fully excluded.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	err := ix.writeSegment(bw, ix.snap.Load())
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return cw.n, fmt.Errorf("graphdim: write index: %w", err)
	}
	return cw.n, nil
}

// ReadIndex loads an index written by WriteTo or a store checkpoint,
// fully rehydrated onto the heap (open a Store to serve a segment
// mapped). The bytes arrive through a reader, so the body checksum is
// verified like a heap open of the file.
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graphdim: read index: %w", err)
	}
	sr, err := segment.NewReader(data, false, nil)
	if err == nil {
		err = sr.VerifyBody()
	}
	if err != nil {
		return nil, fmt.Errorf("graphdim: read index: %w", err)
	}
	return indexFromSegment(sr, true, nil)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
