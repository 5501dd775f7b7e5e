// Package topk implements the top-k similarity query engines the paper
// evaluates (Section 6): the exact engine ranking by MCS-based graph
// dissimilarity, the mapped-space engine ranking by normalized Euclidean
// distance over binary feature vectors (a sequential scan, exactly as the
// paper does for all algorithms — Mapped in its scalar reference form,
// MappedScan over the SoA block for serving), and the
// fingerprint/Tanimoto benchmark engine.
package topk

import (
	"context"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/vecspace"
)

// Item is one ranked result: the database index and its score (smaller is
// more similar for dissimilarity engines, larger for Tanimoto — Rank
// normalizes direction via the less function used to sort).
type Item struct {
	ID    int
	Score float64
}

// Ranking is a full similarity ranking of the database for one query,
// most similar first. Ties are broken by ascending database id so that
// every engine is deterministic.
type Ranking []Item

// TopK returns the first k ids of the ranking.
func (r Ranking) TopK(k int) []int {
	if k > len(r) {
		k = len(r)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = r[i].ID
	}
	return out
}

// RankOf returns the 1-based rank of id, or len(r)+1 if absent.
func (r Ranking) RankOf(id int) int {
	for i, it := range r {
		if it.ID == id {
			return i + 1
		}
	}
	return len(r) + 1
}

// sortItems orders items ascending by score (ties by id). Ids are
// distinct, so the comparator is a strict total order and every correct
// sort yields the same permutation — the engines stay deterministic.
// slices.SortFunc rather than sort.Slice keeps the hot path free of the
// reflection-based swapper (and its per-call allocations).
func sortItems(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		if a.Score != b.Score {
			if a.Score < b.Score {
				return -1
			}
			return 1
		}
		return a.ID - b.ID // ids are non-negative: no overflow
	})
}

// Alive filters a scan to a subset of the database: ids for which it
// returns false are skipped entirely (tombstoned graphs, caller
// predicates). A nil Alive admits every id.
type Alive func(id int) bool

// Limits says which ids a scan may score, as data the scan applies
// inline: a tombstone slice costs the kernel loop a load, and only a
// caller's predicate costs a call — so a scan with no predicate never
// leaves the vector store, and never resolves a graph to decide to skip
// it. The zero Limits admits every id the store holds.
type Limits struct {
	// Dead, when non-nil, marks tombstoned ids; it must cover every id
	// the store holds. Leave it nil when nothing is dead.
	Dead []bool
	// Pred, when non-nil, is asked last, and only about ids that are not
	// dead.
	Pred Alive
}

// Admits reports whether the limits admit id.
func (l Limits) Admits(id int) bool {
	return !l.skips(id) && (l.Pred == nil || l.Pred(id))
}

// skips is the part of Admits that is data — dead. It is split out
// because it inlines, which Admits as a whole does not: the scan loops
// test it in line and make a call only for a predicate.
func (l Limits) skips(id int) bool {
	return l.Dead != nil && l.Dead[id]
}

// Exact ranks the database for query q by the MCS dissimilarity metric —
// the ground-truth engine. opt bounds each MCS search (Options{} = fully
// exact).
func Exact(db []*graph.Graph, q *graph.Graph, metric mcs.Metric, opt mcs.Options) Ranking {
	r, _ := ExactContext(context.Background(), len(db), SliceGraphs(db), q, metric, opt, Limits{})
	return r
}

// ExactContext is Exact over database ids [0, n) resolved through
// graphAt (see GraphAt — a mapped store decodes payloads on demand),
// restricted to the ids lim admits, with cancellation checked before
// each MCS search (the expensive unit).
func ExactContext(ctx context.Context, n int, graphAt GraphAt, q *graph.Graph, metric mcs.Metric,
	opt mcs.Options, lim Limits) (Ranking, error) {
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		if !lim.Admits(i) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := graphAt(i)
		if err != nil {
			return nil, err
		}
		items = append(items, Item{ID: i, Score: metric.DissimilarityBudget(q, g, opt)})
	}
	sortItems(items)
	return items, nil
}

// Candidates is a pruned scan plan for one mapped-space query, computed
// by internal/posting from per-dimension posting lists: the ids whose
// vectors share at least one set dimension with the query (scored
// exactly, from their vectors) plus a lazy stream over the remaining
// ids in ascending score order (an unmatched id's distance depends only
// on its ones count). A nil *Candidates selects the flat scan.
type Candidates struct {
	// K bounds the ranking: the merged result holds the exact top K of
	// what the flat scan would rank, in the flat scan's order. K <= 0
	// degrades to the flat scan.
	K int
	// QueryOnes is the query vector's set-bit count |F(q)|.
	QueryOnes int
	// Matched holds, ascending, every id sharing >= 1 dimension with the
	// query. Tombstoned ids may appear; the scan filters them through its
	// limits.
	Matched []int32
	// Rest yields every id not in Matched in ascending (ones, id) order
	// with its ones count, stopping when yield returns false.
	Rest func(yield func(id, ones int32) bool)
}

// Mapped ranks the database by normalized Euclidean distance between
// binary feature vectors — the paper's online query path: map the query
// with VF2 feature matching, then scan the vector database.
func Mapped(dbVectors []*vecspace.BitVector, qv *vecspace.BitVector) Ranking {
	r, _, _ := MappedContext(context.Background(), dbVectors, qv, nil)
	return r
}

// MappedContext is Mapped restricted to the ids admitted by alive: the
// paper's sequential scan, one scalar distance per vector and a full
// sort. It is what internal/experiments measures and the reference the
// kernel and engine-equivalence suites compare MappedScan against; no
// Search runs it. The second return value is the number of
// ids scored. The scan is pure bit arithmetic, so cancellation is only
// checked every mappedCtxStride ids — prompt enough for
// multi-million-graph scans without a per-vector atomic load.
func MappedContext(ctx context.Context, dbVectors []*vecspace.BitVector, qv *vecspace.BitVector,
	alive Alive) (Ranking, int, error) {
	items := make([]Item, 0, len(dbVectors))
	for i, v := range dbVectors {
		if i%mappedCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if alive != nil && !alive(i) {
			continue
		}
		items = append(items, Item{ID: i, Score: qv.Distance(v)})
	}
	sortItems(items)
	return items, len(items), nil
}

// MappedTopKContext is MappedScan behind the signature bench/trace.go
// compiles against: alive becomes the limits' predicate, and dbVectors — consulted only when blk is nil, and then packed
// once for this call — survives for that file alone; dropping both
// belongs to a later benchmark PR.
func MappedTopKContext(ctx context.Context, dbVectors []*vecspace.BitVector, blk *vecspace.Block,
	qv *vecspace.BitVector, alive Alive, k int, cands *Candidates, s *Scratch) (Ranking, int, error) {
	if blk == nil {
		blk = vecspace.Pack(dbVectors, qv.Len())
	}
	return MappedScan(ctx, blk, qv, Limits{Pred: alive}, k, cands, s)
}

// MappedScan is the top-k scan every Search runs: exactly the first k
// entries of MappedContext's ranking over the ids lim admits, computed
// from the SoA block. With a plan it runs the pruned merge; without one
// it streams the block through the popcount kernel and keeps the k best
// with a bounded heap — never materializing, let alone sorting, the full
// ranking. Results are bit-identical to MappedContext's first k entries,
// distances included: the kernel computes the very same integer Hamming
// counts, the same sqrt(hamming/p) expression scores them, and the
// packed-key selection order (hamming, id) equals the flat sort's
// (score, id) order (see scratch.go).
//
// blk is the vector store; the scan covers ids [0, blk.N()).
// s may be nil (buffers are then allocated per call); when non-nil the
// returned Ranking aliases s and is valid only until its next use or
// Release. The second return value is the number of ids the scan
// actually computed a distance for — at most MappedContext's count, and
// smaller whenever the block's zone map proved whole zones irrelevant
// (see zoneSkips); the rankings are identical regardless.
func MappedScan(ctx context.Context, blk *vecspace.Block, qv *vecspace.BitVector, lim Limits,
	k int, cands *Candidates, s *Scratch) (Ranking, int, error) {
	if cands != nil && cands.K > 0 {
		return mappedPruned(ctx, blk, qv, lim, cands, s)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if s == nil {
		s = &Scratch{}
	}
	if k <= 0 {
		s.out = s.out[:0]
		return s.out, 0, nil
	}
	n := blk.N()
	if k > n {
		k = n
	}
	dead, pred := lim.Dead, lim.Pred
	keys := s.keys[:0]
	scored := 0
	// One zone (vecspace.ZoneSpan ids) at a time, heap live, so the zone
	// map can prove whole zones irrelevant before a single tile is
	// touched. The skip is exact (see zoneSkips): the results are
	// bit-identical to a scan with no zone map — only `scored` (a
	// diagnostic) shrinks.
	zones := blk.Zones()
	qw, qOnes := qv.Words(), qv.Ones()
	dists := s.distBuf(n)
	for lo := 0; lo < n; lo += vecspace.ZoneSpan {
		zi := lo / vecspace.ZoneSpan
		if zi%zoneCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if zones != nil && len(keys) == k &&
			zones.LowerBound(qOnes, qw, zi) >= int(keys[0]>>32) {
			continue
		}
		hi := lo + vecspace.ZoneSpan
		if hi > n {
			hi = n
		}
		blk.HammingSlice(qv, lo, hi, dists)
		for id := lo; id < hi; id++ {
			if dead != nil && dead[id] {
				continue
			}
			if pred != nil && !pred(id) {
				continue
			}
			scored++
			keys = pushK(keys, k, uint64(dists[id])<<32|uint64(id))
		}
	}
	s.keys = keys
	slices.Sort(keys)
	p := float64(qv.Len())
	out := s.out[:0]
	for _, key := range keys {
		score := 0.0
		if p > 0 {
			score = math.Sqrt(float64(key>>32) / p)
		}
		out = append(out, Item{ID: int(uint32(key)), Score: score})
	}
	s.out = out
	return out, scored, nil
}

// zoneSkips documents why skipping a zone whose lower bound reaches the
// heap's worst kept Hamming count is exact. With the heap full, a new
// candidate enters only when its packed key (hamming<<32 | id) is
// strictly below the root's. Every id in an unvisited zone is greater
// than every id already in the heap (both scans visit ids ascending), so
// a zone candidate with hamming equal to the root's count packs a key
// above the root — a rejected tie — and one with a greater count is
// rejected outright. LowerBound proves no zone member has a smaller
// count, hence no member can displace anything: the skip changes no
// result, only the work done.
//
// mappedPruned evaluates the pruned plan. Equivalence to the flat scan
// rests on three facts: (1) a matched id's distance is computed from the
// same block by the kernel's gather, which produces the identical
// integer Hamming count; (2) an unmatched id shares no dimension with
// the query, so its Hamming distance is exactly QueryOnes + ones(id)
// and distinct ones counts give distinct float64 scores (the gap 1/p dwarfs every rounding error for any p the codec
// admits), making the (ones, id) stream order equal to the flat scan's
// (score, id) tie order; (3) the merge emits at most K items, so only
// the (score, id)-first K matched candidates can ever reach the output —
// bounding the matched stage with the same heap the flat scan uses keeps
// exactly those, and zone skips are exact per zoneSkips.
func mappedPruned(ctx context.Context, blk *vecspace.Block, qv *vecspace.BitVector, lim Limits,
	cands *Candidates, s *Scratch) (Ranking, int, error) {
	if s == nil {
		s = &Scratch{}
	}
	p, pred := qv.Len(), lim.Pred
	ids := s.ids[:0]
	for j, id := range cands.Matched {
		if j%mappedCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if lim.skips(int(id)) || (pred != nil && !pred(int(id))) {
			continue
		}
		ids = append(ids, id)
	}
	s.ids = ids
	keys := s.keys[:0]
	scored := 0
	// Group the (ascending) candidate list by zone, let the zone map skip
	// hopeless groups, gather the rest through the batched kernel.
	zones := blk.Zones()
	qw, qOnes := qv.Words(), qv.Ones()
	dists := s.distBuf(len(ids))
	for start, group := 0, 0; start < len(ids); group++ {
		zi := int(ids[start]) / vecspace.ZoneSpan
		end := start + 1
		for end < len(ids) && int(ids[end])/vecspace.ZoneSpan == zi {
			end++
		}
		if group%zoneCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if zones != nil && len(keys) == cands.K &&
			zones.LowerBound(qOnes, qw, zi) >= int(keys[0]>>32) {
			start = end
			continue
		}
		s.gather = blk.HammingGather(qv, ids[start:end], s.gather, dists[:end-start])
		for i, id := range ids[start:end] {
			keys = pushK(keys, cands.K, uint64(dists[i])<<32|uint64(id))
		}
		scored += end - start
		start = end
	}
	s.keys = keys
	slices.Sort(keys)
	matched := s.items[:0]
	for _, key := range keys {
		score := 0.0
		if p > 0 {
			score = math.Sqrt(float64(key>>32) / float64(p))
		}
		matched = append(matched, Item{ID: int(uint32(key)), Score: score})
	}
	s.items = matched

	// Merge the sorted matched items with the score-ordered unmatched
	// stream, stopping at K results.
	out := s.out[:0]
	mi := 0
	steps := 0
	var rerr error
	cands.Rest(func(id, ones int32) bool {
		steps++
		if steps%mappedCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				rerr = err
				return false
			}
		}
		if lim.skips(int(id)) || (pred != nil && !pred(int(id))) {
			return true
		}
		score := math.Sqrt(float64(int(ones)+cands.QueryOnes) / float64(p))
		for mi < len(matched) && (matched[mi].Score < score ||
			(matched[mi].Score == score && matched[mi].ID < int(id))) {
			out = append(out, matched[mi])
			mi++
			if len(out) >= cands.K {
				return false
			}
		}
		out = append(out, Item{ID: int(id), Score: score})
		scored++
		return len(out) < cands.K
	})
	if rerr != nil {
		return nil, 0, rerr
	}
	for mi < len(matched) && len(out) < cands.K {
		out = append(out, matched[mi])
		mi++
	}
	return out, scored, nil
}

const mappedCtxStride = 4096

// zoneCtxStride is how many zones the kernel paths process between
// cancellation checks: 16 zones × ZoneSpan ids = the same 4096-id cadence
// as mappedCtxStride when nothing skips.
const zoneCtxStride = 16

// Tanimoto ranks the database by descending Tanimoto similarity of
// fingerprints — the PubChem-style benchmark engine. Scores are stored as
// 1−similarity so that Ranking remains ascending-is-better.
func Tanimoto(dbFP []*vecspace.BitVector, qFP *vecspace.BitVector, sim func(a, b *vecspace.BitVector) float64) Ranking {
	items := make([]Item, len(dbFP))
	for i, v := range dbFP {
		items[i] = Item{ID: i, Score: 1 - sim(qFP, v)}
	}
	sortItems(items)
	return items
}
