package posting

import (
	"slices"

	"repro/internal/graph"
)

// LabelIndex holds per-label inverted lists over a database of graphs:
// for every vertex (and edge) label, the ascending ids of the graphs
// containing it, with the occurrence count carried alongside. It is the
// structure that lets a declarative label filter — "contains vertex
// label 7 at least 3 times" — be answered from its lists instead of a
// per-graph histogram scan (see internal/pipeline).
//
// The concurrency contract mirrors Index: a LabelIndex is immutable to
// readers, Append returns an extended index sharing the untouched tails
// of the old one, Appends must be serialized by the caller and only ever
// applied to the newest index of a chain, and removals are not label
// events — tombstoned ids stay listed and are masked by the scan's
// tombstone bitset.
type LabelIndex struct {
	n      int
	vertex map[graph.Label]*labelList
	edge   map[graph.Label]*labelList
}

// labelList is one label's postings: ids[i] contains the label
// counts[i] times (counts[i] >= 1 always; absent graphs are not listed).
type labelList struct {
	ids    []int32
	counts []int32
}

// LabelsFromGraphs builds the label index for graphs with ids
// [0, len(gs)).
func LabelsFromGraphs(gs []*graph.Graph) *LabelIndex {
	l := &LabelIndex{
		vertex: make(map[graph.Label]*labelList),
		edge:   make(map[graph.Label]*labelList),
	}
	return l.Append(gs)
}

// Append extends the index with the graphs of ids [N, N+len(gs)) and
// returns the extended index. Like Index.Append, the receiver stays
// valid for concurrent readers (appended entries land beyond every
// published slice length) and callers must serialize Appends, always
// appending to the newest index of a chain.
func (l *LabelIndex) Append(gs []*graph.Graph) *LabelIndex {
	if len(gs) == 0 {
		return l
	}
	next := &LabelIndex{
		n:      l.n + len(gs),
		vertex: make(map[graph.Label]*labelList, len(l.vertex)),
		edge:   make(map[graph.Label]*labelList, len(l.edge)),
	}
	for lab, ll := range l.vertex {
		next.vertex[lab] = &labelList{ids: ll.ids, counts: ll.counts}
	}
	for lab, ll := range l.edge {
		next.edge[lab] = &labelList{ids: ll.ids, counts: ll.counts}
	}
	// Per-graph scratch: label -> occurrences, reused across graphs.
	vc := make(map[graph.Label]int32)
	ec := make(map[graph.Label]int32)
	for i, g := range gs {
		id := int32(l.n + i)
		clear(vc)
		clear(ec)
		for v := 0; v < g.N(); v++ {
			vc[g.VertexLabel(v)]++
		}
		for _, e := range g.Edges() {
			ec[e.Label]++
		}
		appendCounts(next.vertex, vc, id)
		appendCounts(next.edge, ec, id)
	}
	return next
}

// Prefix returns the index of the graphs with ids [0, n): each list cut
// before its first id >= n, sharing the receiver's arrays with their
// capacity clipped, so an Append to the prefix copies rather than write
// where the receiver's chain appends.
func (l *LabelIndex) Prefix(n int) *LabelIndex {
	return &LabelIndex{n: n, vertex: prefixLists(l.vertex, n), edge: prefixLists(l.edge, n)}
}

func prefixLists(m map[graph.Label]*labelList, n int) map[graph.Label]*labelList {
	out := make(map[graph.Label]*labelList, len(m))
	for lab, ll := range m {
		k, _ := slices.BinarySearch(ll.ids, int32(n))
		if k > 0 {
			out[lab] = &labelList{ids: ll.ids[:k:k], counts: ll.counts[:k:k]}
		}
	}
	return out
}

func appendCounts(m map[graph.Label]*labelList, counts map[graph.Label]int32, id int32) {
	for lab, c := range counts {
		ll := m[lab]
		if ll == nil {
			ll = &labelList{}
			m[lab] = ll
		}
		ll.ids = append(ll.ids, id)
		ll.counts = append(ll.counts, c)
	}
}

// KeepVertex clears in keep (id i is bit i%64 of keep[i/64]) every id
// whose graph does not contain vertex label lab at least minCount times
// (minCount <= 1 means presence). keep must cover the index's ids.
func (l *LabelIndex) KeepVertex(keep []uint64, lab graph.Label, minCount int) {
	l.vertex[lab].keep(keep, minCount)
}

// KeepEdge is KeepVertex for edge labels.
func (l *LabelIndex) KeepEdge(keep []uint64, lab graph.Label, minCount int) {
	l.edge[lab].keep(keep, minCount)
}

// keep ANDs the list into keep word by word, in one pass over its
// ascending ids and keep's words: no list or bitset is allocated. A nil
// list (a label no graph has) clears every id.
func (ll *labelList) keep(keep []uint64, minCount int) {
	w, m := 0, uint64(0) // the word being built and its listed bits
	if ll != nil {
		for i, id := range ll.ids {
			if int(ll.counts[i]) < minCount {
				continue
			}
			for ; w < int(id)/64; w++ {
				keep[w] &= m
				m = 0
			}
			m |= 1 << (id % 64)
		}
	}
	for ; w < len(keep); w++ {
		keep[w] &= m
		m = 0
	}
}
