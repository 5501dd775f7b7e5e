package graphdim

// This file bridges the collection layer to internal/segment, the on-disk
// format: checkpoints stream each shard's snapshot out as a v6 segment
// (writeSegment) — its vectors, tombstones, graphs and lane→global id
// table, nothing derivable from them — and opens serve a segment back in
// place: the tile section IS the scan block, and graph payloads are
// decoded on first demand (snapshotFromSegment). Zone maps are rebuilt
// from the tiles, never read from the file. A shard file of an older
// generation is refused by name.

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pool"
	"repro/internal/segment"
)

// segSource is the mapped segment a snapshot chain is served from. It is
// created once per open and shared — with its decoded-graph cache —
// across every snapshot descended from that open (appended and
// tombstoned snapshots carry it forward), so a graph payload is decoded
// at most once per process no matter how many snapshots alias the
// mapping.
type segSource struct {
	r      *segment.Reader
	graphs []atomic.Pointer[graph.Graph]
}

func newSegSource(r *segment.Reader) *segSource {
	return &segSource{r: r, graphs: make([]atomic.Pointer[graph.Graph], r.N())}
}

// graphAt returns graph id, decoding it from the mapping on first demand.
// Racing decoders may duplicate work; CompareAndSwap publishes exactly
// one so callers always see one identity per id.
func (ss *segSource) graphAt(id int) (*Graph, error) {
	if g := ss.graphs[id].Load(); g != nil {
		return g, nil
	}
	g, err := ss.r.GraphAt(id)
	if err != nil {
		return nil, err
	}
	if ss.graphs[id].CompareAndSwap(nil, g) {
		return g, nil
	}
	return ss.graphs[id].Load(), nil
}

// writeSegment streams snapshot s as a v6 segment. The tile section is
// written in exactly the layout the scan kernel consumes, so a later
// mapped open serves queries from the file bytes with zero rehydration.
// When s itself is served from a mapped segment, unmodified graph
// payloads are copied verbatim (graphs are immutable — no decode,
// re-encode round trip per checkpoint).
func (ix *Index) writeSegment(w io.Writer, s *snapshot) error {
	var buf bytes.Buffer
	graphBytes := func(i int) ([]byte, error) {
		if s.seg != nil && s.db[i] == nil {
			return s.seg.r.GraphBytes(i)
		}
		buf.Reset()
		if err := graph.WriteBinary(&buf, s.db[i]); err != nil {
			return nil, err
		}
		// Write collects the blobs before streaming them, so each call
		// must return bytes that survive the next Reset.
		return append([]byte(nil), buf.Bytes()...), nil
	}

	ids := s.globals
	if ids == nil {
		// A stand-alone index: each id is its own global id.
		ids = make([]int, len(s.db))
		for i := range ids {
			ids[i] = i
		}
	}
	return segment.Write(w, segment.Payload{
		Meta: segment.Meta{
			Metric:    byte(ix.metric),
			MCSBudget: ix.mcsOpt.MaxNodes,
			Weights:   ix.weights,
			Features:  ix.features,
			BaseN:     s.baseN,
		},
		Block: s.block,
		Dead:  s.dead,
		IDs:   ids,
		Graph: graphBytes,
	})
}

// indexFromSegment serves an opened segment — mapped or read into one
// heap buffer, its checksums verified by segment.Open — as an index under
// the segment's own id table (see snapshotFromSegment): the dimension set
// and codec parameters come from the segment's meta section. On error r
// is closed.
func indexFromSegment(r *segment.Reader) (*Index, error) {
	m := r.Meta()
	var snap *snapshot
	var err error
	if m.Metric > byte(Delta2) {
		err = fmt.Errorf("graphdim: corrupt segment: unknown metric %d", m.Metric)
	} else {
		snap, err = snapshotFromSegment(r)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return newIndex(m.Features, m.Weights, Metric(m.Metric),
		mcs.Options{MaxNodes: m.MCSBudget}, pool.DefaultWorkers(0), snap), nil
}
