// Package topk implements the top-k similarity query engines the paper
// evaluates (Section 6): the exact engine ranking by MCS-based graph
// dissimilarity, the mapped-space engine ranking by normalized Euclidean
// distance over binary feature vectors (a sequential scan, exactly as the
// paper does for all algorithms — Mapped in its scalar reference form,
// MappedScan over the SoA block for serving), and the
// fingerprint/Tanimoto benchmark engine.
package topk

import (
	"cmp"
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
// most similar first. Ties are broken by ascending rank (see Order; the
// database id unless the caller ranks ids otherwise) so that every engine
// is deterministic.
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

// Order is how the engines break ties between equal scores: the lower
// rank ranks first. Rank[id] is id's rank, and the zero Order ranks every
// id by itself. A collection's shard ranks its lanes by their global ids,
// so its top-k is a prefix of the collection's whatever order the lanes
// are stored in. Ranks are distinct and below 2^32 (they share a packed
// key with the Hamming count; see scratch.go).
type Order struct {
	Rank []int
	// ZoneMin[zi] is the least rank among the ids of zone zi (the
	// vecspace.ZoneSpan ids from zi·ZoneSpan), the flat scan's second key
	// when it orders zones. It is derived where the ranks change, never
	// per query (vecspace.ZoneMinima), and is set exactly when Rank is.
	ZoneMin []int
}

// rank returns id's rank.
func (o Order) rank(id int) uint64 {
	if o.Rank == nil {
		return uint64(id)
	}
	return uint64(o.Rank[id])
}

// zoneMin returns the least rank in zone zi.
func (o Order) zoneMin(zi int) uint64 {
	if o.ZoneMin == nil {
		return uint64(zi * vecspace.ZoneSpan)
	}
	return uint64(o.ZoneMin[zi])
}

// sort orders items ascending by score, ties by rank. Ranks are
// distinct, so the comparator is a strict total order and every correct
// sort yields the same permutation — the engines stay deterministic.
// slices.SortFunc rather than sort.Slice keeps the hot path free of the
// reflection-based swapper (and its per-call allocations).
func (o Order) sort(items []Item) {
	slices.SortFunc(items, func(a, b Item) int {
		if a.Score != b.Score {
			if a.Score < b.Score {
				return -1
			}
			return 1
		}
		return cmp.Compare(o.rank(a.ID), o.rank(b.ID))
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
	r, _ := ExactContext(context.Background(), len(db), SliceGraphs(db), q, metric, opt, Limits{}, Order{})
	return r
}

// ExactContext is Exact over database ids [0, n) resolved through
// graphAt (see GraphAt — a mapped store decodes payloads on demand),
// restricted to the ids lim admits and ranked with ties in ord, with
// cancellation checked before each MCS search (the expensive unit).
func ExactContext(ctx context.Context, n int, graphAt GraphAt, q *graph.Graph, metric mcs.Metric,
	opt mcs.Options, lim Limits, ord Order) (Ranking, error) {
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
	ord.sort(items)
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
	Order{}.sort(items)
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
	return MappedScan(ctx, blk, qv, Limits{Pred: alive}, Order{}, k, s)
}

// MappedScan is the top-k scan every Search runs: exactly the first k
// entries of the ranking MappedContext would return over the ids lim
// admits with ties broken in ord, computed from the SoA block. Nothing
// materializes, let alone sorts, the full ranking. The scan visits zones
// (vecspace.ZoneSpan ids each) best first, in ascending (LowerBound, least
// rank) order, and stops at the first zone that cannot hold a lane the
// bounded heap would keep (see threshold). Inside a zone it streams the
// tiles through the popcount kernel with the heap's threshold fused in
// (Block.HammingBelow): a lane leaves the kernel only if it is live and
// its count is below the threshold, and only a lane whose packed key
// (hamming<<32 | rank) beats the heap's worst is put to the predicate and
// kept. Results are bit-identical to MappedContext's ordering, distances
// included: the kernel computes the very same integer Hamming counts, the
// same sqrt(hamming/p) expression scores them, and the packed-key order
// (hamming, rank) equals the (score, rank) order (see scratch.go).
//
// blk is the vector store; the scan covers ids [0, blk.N()). s may be nil
// (buffers are then allocated per call); when non-nil the returned
// Ranking aliases s and is valid only until its next use or Release. The
// second return value is the number of ids put in the heap: admitted ids
// that beat its worst when the scan reached them — on a large scan a
// small fraction of MappedContext's count; the rankings are identical
// regardless.
func MappedScan(ctx context.Context, blk *vecspace.Block, qv *vecspace.BitVector, lim Limits,
	ord Order, k int, s *Scratch) (Ranking, int, error) {
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
	heap := s.heap[:0]
	scored := 0
	var zmin uint64 // least rank of the zone being scanned
	// The kernel hands over only the lanes below the threshold; the
	// predicate is asked only about those whose key the heap would keep.
	offer := func(id int, count int32) int32 {
		key := uint64(count)<<32 | ord.rank(id)
		if (len(heap) < k || key < heap[0].key) && (pred == nil || pred(id)) {
			scored++
			heap = pushK(heap, k, entry{key: key, id: id})
		}
		return threshold(heap, k, zmin)
	}
	// Zones go best first, in ascending key: lower bound, then least rank.
	// zonesByBound groups them by bound, each group in zone order; a
	// group is sorted by least rank only when the scan reaches it, and
	// only when the ranks are permuted (otherwise zone order is rank
	// order).
	zones := s.zonesByBound(blk, qv, ord)
	visited, sorted := 0, 0 // zones[:sorted] are in key order
	for i := range zones {
		if i%zoneCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		if i == sorted {
			sorted = i + 1
			for sorted < len(zones) && zones[sorted].key>>32 == zones[i].key>>32 {
				sorted++
			}
			if ord.ZoneMin != nil {
				slices.SortFunc(zones[i:sorted], func(a, b zone) int { return cmp.Compare(a.key, b.key) })
			}
		}
		z := zones[i]
		// Every lane of this zone, and of every zone after it, packs a key
		// at or above the zone's: none beats a full heap's worst.
		if len(heap) == k && z.key >= heap[0].key {
			break
		}
		zmin = uint64(uint32(z.key))
		lo := z.zi * vecspace.ZoneSpan
		blk.HammingBelow(qv, lo, lo+vecspace.ZoneSpan, lim.Skip, threshold(heap, k, zmin), offer)
		visited++
	}
	s.heap, s.visited = heap, visited
	slices.SortFunc(heap, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	p := float64(qv.Len())
	out := s.out[:0]
	for _, e := range heap {
		score := 0.0
		if p > 0 {
			score = math.Sqrt(float64(e.key>>32) / p)
		}
		out = append(out, Item{ID: e.id, Score: score})
	}
	s.out = out
	return out, scored, nil
}

// zonesByBound returns blk's zones keyed LowerBound<<32 | least rank,
// grouped by ascending bound with a counting sort (a bound is at most
// 2p), each group in zone order. Without a zone map every bound is 0.
// The slice is s's.
func (s *Scratch) zonesByBound(blk *vecspace.Block, qv *vecspace.BitVector, ord Order) []zone {
	zm := blk.Zones()
	qw, qOnes := qv.Words(), qv.Ones()
	nz := (blk.N() + vecspace.ZoneSpan - 1) / vecspace.ZoneSpan
	bounds, maxBound := s.bounds[:0], int32(0)
	for zi := 0; zi < nz; zi++ {
		lb := int32(0)
		if zm != nil {
			lb = int32(zm.LowerBound(qOnes, qw, zi))
		}
		bounds = append(bounds, lb)
		maxBound = max(maxBound, lb)
	}
	// starts[b] is where the zones of bound b begin, then where the next
	// one goes.
	starts := slices.Grow(s.starts[:0], int(maxBound)+2)[:maxBound+2]
	clear(starts)
	for _, lb := range bounds {
		starts[lb+1]++
	}
	for b := 1; b < len(starts); b++ {
		starts[b] += starts[b-1]
	}
	zones := slices.Grow(s.zones[:0], nz)[:nz]
	for zi, lb := range bounds {
		zones[starts[lb]] = zone{key: uint64(lb)<<32 | ord.zoneMin(zi), zi: zi}
		starts[lb]++
	}
	s.zones, s.bounds, s.starts = zones, bounds, starts
	return zones
}

// threshold is the count below which a lane of the zone being scanned —
// whose least rank is zmin — can still enter the heap: every count
// (MaxInt32) while the heap has room, then the root's count, plus one
// when the zone may hold a lane ranked before the root. Why that is
// exact: with the heap full, a lane enters only when its key (hamming<<32
// | rank) is strictly below the root's. Zones are not visited in rank
// order, so a lane whose count equals the root's enters when its rank is
// the smaller — which no lane of a zone whose least rank is above the
// root's can have. So the lanes HammingBelow masks (count >= threshold)
// and the zones the scan stops at (their key, LowerBound<<32 | least
// rank, at or above the root's; no lane packs a smaller key) are lanes
// pushK would reject; dropping them changes no result, only the work
// done and the count of ids put in the heap.
func threshold(heap []entry, k int, zmin uint64) int32 {
	if len(heap) < k {
		return math.MaxInt32
	}
	root := heap[0].key
	t := int32(root >> 32)
	if zmin < uint64(uint32(root)) {
		t++
	}
	return t
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
	Order{}.sort(items)
	return items
}
