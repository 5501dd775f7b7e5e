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
// inline: the flat scan's kernel masks a tile's skipped lanes with one
// shift of the bitset, and only a caller's predicate costs a call — so a
// scan with no predicate never leaves the vector store, and never
// resolves a graph to decide to skip it. The zero Limits admits every id
// the store holds.
type Limits struct {
	// Skip, when non-nil, is the bitset of ids the scan must not score —
	// tombstones, and on a filtered search every id outside the filter's
	// pushed-down set: id i is skipped when bit i%64 of Skip[i/64] is set.
	// It must cover every id the store holds. Leave it nil when nothing is
	// skipped.
	Skip []uint64
	// Pred, when non-nil, is asked last, and only about ids that are not
	// skipped. The flat scan asks it only about ids whose count would enter
	// the heap (see bound), so it may not be asked about every admitted id.
	Pred Alive
}

// Admits reports whether the limits admit id.
func (l Limits) Admits(id int) bool {
	if l.Skip != nil && l.Skip[id/64]&(1<<(id%64)) != 0 {
		return false
	}
	return l.Pred == nil || l.Pred(id)
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

// Candidates is a posting-list scan plan (see internal/posting's Plan):
// the ids sharing a dimension with the query plus a stream over the rest
// in ascending (ones, id) order. No scan evaluates it any more: every
// plan ranks exactly like the flat scan, which won every workload the
// plan was measured on. It survives only as the type of
// MappedTopKContext's cands parameter, which bench/trace.go compiles
// against; the benchmark change that drops that parameter and dbVectors
// drops the type too.
type Candidates struct {
	K         int
	QueryOnes int
	Matched   []int32
	Rest      func(yield func(id, ones int32) bool)
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
// compiles against: alive becomes the limits' predicate, and dbVectors —
// consulted only when blk is nil, and then packed once for this call —
// and cands, which it ignores (every plan ranks exactly like the flat
// scan), survive for that file alone; dropping both belongs to a later
// benchmark PR.
func MappedTopKContext(ctx context.Context, dbVectors []*vecspace.BitVector, blk *vecspace.Block,
	qv *vecspace.BitVector, alive Alive, k int, cands *Candidates, s *Scratch) (Ranking, int, error) {
	if blk == nil {
		blk = vecspace.Pack(dbVectors, qv.Len())
	}
	return MappedScan(ctx, blk, qv, Limits{Pred: alive}, k, s)
}

// MappedScan is the top-k scan every Search runs: exactly the first k
// entries of MappedContext's ranking over the ids lim admits, computed
// from the SoA block. It streams the block through the popcount kernel
// with the heap's threshold fused in (Block.HammingBelow): a lane leaves
// the kernel only
// if it is live and its count is below bound — the heap's worst count —
// and only then is the predicate asked and the k best kept in a bounded
// heap. Nothing materializes, let alone sorts, the full ranking. Results
// are bit-identical to MappedContext's first k entries, distances
// included: the kernel computes the very same integer Hamming counts, the
// same sqrt(hamming/p) expression scores them, the packed-key selection
// order (hamming, id) equals the flat sort's (score, id) order (see
// scratch.go), and every lane or zone the threshold drops is one the heap
// would reject (see bound).
//
// blk is the vector store; the scan covers ids [0, blk.N()).
// s may be nil (buffers are then allocated per call); when non-nil the
// returned Ranking aliases s and is valid only until its next use or
// Release. The second return value is the number of ids offered to the
// heap: admitted ids that the threshold and the zone map did not rule
// out — at most MappedContext's count, and on a large scan a small
// fraction of it; the rankings are identical regardless.
func MappedScan(ctx context.Context, blk *vecspace.Block, qv *vecspace.BitVector, lim Limits,
	k int, s *Scratch) (Ranking, int, error) {
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
	k = min(k, n)
	pred := lim.Pred
	keys := s.keys[:0]
	scored := 0
	// The kernel hands over only the lanes that can enter the heap (see
	// bound); the predicate is asked about those alone.
	offer := func(id int, count int32) int32 {
		if pred == nil || pred(id) {
			scored++
			keys = pushK(keys, k, uint64(count)<<32|uint64(id))
		}
		return bound(keys, k)
	}
	// One zone (vecspace.ZoneSpan ids) at a time, so the zone map can
	// prove whole zones irrelevant before a single tile is touched.
	zones := blk.Zones()
	qw, qOnes := qv.Words(), qv.Ones()
	thr := int32(math.MaxInt32)
	for lo := 0; lo < n; lo += vecspace.ZoneSpan {
		zi := lo / vecspace.ZoneSpan
		if zi%zoneCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if zones != nil && zones.LowerBound(qOnes, qw, zi) >= int(thr) {
			continue
		}
		thr = blk.HammingBelow(qv, lo, lo+vecspace.ZoneSpan, lim.Skip, thr, offer)
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

// bound is the scan's threshold: an id visited from here on can enter
// the heap only with a Hamming count below it — every id (MaxInt32) while
// the heap has room, then the root's count. Why that is exact: with the
// heap full, a candidate enters only when its packed key (hamming<<32 |
// id) is strictly below the root's. The scan visits ids ascending, so
// the candidate's id exceeds every id in the heap; with a count equal to
// the root's it packs a key above the root — a rejected tie — and with a
// greater count it is rejected outright. So the lanes HammingBelow masks
// (count >= bound) and the zones the scan skips (LowerBound >= bound: no
// member has a smaller count) are lanes pushK would reject; dropping
// them changes no result, only the work done and the count of ids
// offered. Every lane the flat scan does offer is one pushK accepts
// unless the predicate refuses it, so the predicate — on a mapped store,
// a payload decode — is asked only about ids that would enter the heap.
func bound(keys []uint64, k int) int32 {
	if len(keys) < k {
		return math.MaxInt32
	}
	return int32(keys[0] >> 32)
}

const mappedCtxStride = 4096

// zoneCtxStride is how many zones the flat scan processes between
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
