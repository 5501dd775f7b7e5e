package topk

import (
	"context"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/vecspace"
)

// Verified answers a top-k query with a filter-and-verify hybrid: retrieve
// factor·k candidates by mapped-space distance, then re-rank just those
// candidates with the exact (budgeted) MCS dissimilarity. The paper's
// DS-preserved mapping is designed to make verification unnecessary; this
// engine exposes the accuracy/latency dial between the pure mapped scan
// and full exact search, and is used by the extension experiment in
// EXPERIMENTS.md.
func Verified(db []*graph.Graph, dbVectors []*vecspace.BitVector, q *graph.Graph, qv *vecspace.BitVector,
	k, factor int, metric mcs.Metric, opt mcs.Options) Ranking {
	r, _, _ := VerifiedContext(context.Background(), SliceGraphs(db), vecspace.Pack(dbVectors, qv.Len()), q, qv, k, factor, 0, metric, opt, Limits{}, nil, nil)
	return r
}

// GraphAt resolves a database id to its graph payload. The mapped-
// segment store decodes the payload from the segment on demand — the
// verified and exact engines fault in only the graphs they actually
// verify, which for the verified engine is its final candidate set, not
// the corpus.
type GraphAt func(id int) (*graph.Graph, error)

// SliceGraphs adapts an in-heap graph slice to a GraphAt.
func SliceGraphs(db []*graph.Graph) GraphAt {
	return func(id int) (*graph.Graph, error) { return db[id], nil }
}

// VerifiedContext is Verified with cancellation, the scan limits of the
// retrieval stage, an optional cap on the number of candidates verified
// (maxCandidates <= 0 means uncapped), and optional posting-list
// pruning of the retrieval stage (pruned == nil means the flat scan;
// pruned.K is overwritten with the candidate count this call needs, so
// callers leave it zero). blk is the vector store the retrieval stage
// scans; s, when non-nil, is the retrieval stage's scratch arena (see
// MappedScan). The candidate count factor·k is computed in
// 64-bit arithmetic and clamped to the in-bound database size, so a
// factor "overflowing" the database — or int range — degrades to
// verifying every admitted graph rather than panicking. ctx is checked
// before each MCS verification. The second return value is the number
// of candidates verified with an MCS search.
func VerifiedContext(ctx context.Context, graphAt GraphAt, blk *vecspace.Block, q *graph.Graph,
	qv *vecspace.BitVector, k, factor, maxCandidates int, metric mcs.Metric, opt mcs.Options,
	lim Limits, pruned *Candidates, s *Scratch) (Ranking, int, error) {
	if k <= 0 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		return Ranking{}, 0, nil
	}
	if factor < 1 {
		factor = 1
	}
	n := int64(blk.N())
	want := int64(k) * int64(factor)
	if want/int64(k) != int64(factor) {
		// int64 overflow: both operands are huge; every candidate wins.
		want = n
	}
	if maxCandidates > 0 && want > int64(maxCandidates) {
		want = int64(maxCandidates)
	}
	if want > n {
		want = n
	}
	if pruned != nil {
		// The retrieval stage needs exactly the top `want` mapped-space
		// candidates; the pruned scan returns precisely that prefix (or
		// every admitted id, if fewer), identical to the flat ranking.
		pruned.K = int(want)
	}
	retrieved, _, err := MappedScan(ctx, blk, qv, lim, int(want), pruned, s)
	if err != nil {
		return nil, 0, err
	}
	if want > int64(len(retrieved)) {
		want = int64(len(retrieved))
	}
	items := make([]Item, want)
	for i := range items {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		id := retrieved[i].ID
		g, err := graphAt(id)
		if err != nil {
			return nil, 0, err
		}
		items[i] = Item{ID: id, Score: metric.DissimilarityBudget(q, g, opt)}
	}
	sortItems(items)
	if len(items) > k {
		items = items[:k]
	}
	return items, int(want), nil
}
