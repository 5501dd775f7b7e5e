// Package posting implements the candidate-pruning accelerator for the
// mapped-space query engine: per-dimension inverted posting lists over a
// database of binary feature vectors, plus the ones-count buckets that
// make the non-matching remainder of the database enumerable in score
// order without touching its vectors.
//
// The paper's central bet is a small selected dimension set that
// discriminates the database. A query that contains few (or none) of
// those dimensions interacts with only the graphs on its matched
// dimensions' posting lists; for every other graph g the normalized
// Euclidean distance collapses to a function of |F(g)| alone:
//
//	hamming(q, g) = |F(q)| + |F(g)|        when F(q) ∩ F(g) = ∅
//
// so ranking the unmatched remainder needs only each graph's ones
// count, pre-bucketed in ascending (ones, id) order. A top-k query then
// scores the union of the matched posting lists exactly — via the SoA
// scan kernel's gather (vecspace.Block.HammingGather) over the
// snapshot's block — and merges in the unmatched stream lazily —
// sublinear in the collection size whenever the matched lists are
// short, and bit-identical to the flat scan always (see internal/topk).
//
// An Index is immutable to readers. Append extends it with new ids
// (graph ids are assigned densely ascending, so appended postings keep
// every list sorted) and returns a new Index that shares the untouched
// tails of the old one; Appends must be serialized by the caller and
// only ever applied to the newest Index of a chain — graphdim holds its
// writer lock across them. Removals are not posting events: tombstoned
// ids stay listed and are filtered by the scan's liveness predicate,
// exactly as in the flat scan.
package posting

import (
	"repro/internal/vecspace"
)

// Index holds the per-dimension posting lists and ones-count buckets of
// a database of n binary vectors over p dimensions.
type Index struct {
	p, n int
	// lists[r] enumerates, ascending, the ids whose vector has bit r.
	lists [][]int32
	// byCount[c] enumerates, ascending, the ids whose vector has exactly
	// c set bits. Iterating c = 0..p yields all ids in ascending
	// (ones, id) — equivalently ascending unmatched-score — order.
	byCount [][]int32
}

// FromVectors builds the index by transposing the vectors' set bits.
// Every vector must have dimension p.
func FromVectors(vectors []*vecspace.BitVector, p int) *Index {
	ix := &Index{
		p:       p,
		lists:   make([][]int32, p),
		byCount: make([][]int32, p+1),
	}
	return ix.Append(vectors)
}

// FromLists assembles an index from already-decoded posting lists (the
// persistence fast path). The caller is responsible for validity: each
// list strictly ascending with ids in [0, n), and list r holding exactly
// the ids whose vector has bit r — segment.Reader.Postings checks the
// structure (ascending, in range, total postings = total ones) before
// calling. ones[id] must be the set-bit count of vector id; the ones
// buckets are derived here.
func FromLists(p, n int, lists [][]int32, ones []int32) *Index {
	ix := &Index{p: p, n: n, lists: lists, byCount: make([][]int32, p+1)}
	counts := make([]int, p+1)
	for _, o := range ones {
		counts[o]++
	}
	for c, cnt := range counts {
		if cnt > 0 {
			ix.byCount[c] = make([]int32, 0, cnt)
		}
	}
	for id, o := range ones {
		ix.byCount[o] = append(ix.byCount[o], int32(id))
	}
	return ix
}

// N returns the number of ids covered (ids are exactly [0, N)).
func (ix *Index) N() int { return ix.n }

// P returns the dimensionality.
func (ix *Index) P() int { return ix.p }

// List returns dimension r's posting list. The slice is owned by the
// index and must not be modified; it exists for serialization and
// introspection.
func (ix *Index) List(r int) []int32 { return ix.lists[r] }

// Postings returns the total posting count Σ_r |List(r)| — equal to the
// total set-bit count of the database's vectors.
func (ix *Index) Postings() int {
	total := 0
	for _, l := range ix.lists {
		total += len(l)
	}
	return total
}

// Append extends the index with the vectors of ids [N, N+len(vecs)) and
// returns the extended index. The receiver stays valid for concurrent
// readers: appended entries land beyond every length any published
// slice header covers. Callers must serialize Appends and always append
// to the newest index of a chain (two Appends branching from the same
// index would clobber each other's shared backing arrays).
func (ix *Index) Append(vecs []*vecspace.BitVector) *Index {
	if len(vecs) == 0 {
		return ix
	}
	next := &Index{
		p:       ix.p,
		n:       ix.n + len(vecs),
		lists:   append([][]int32(nil), ix.lists...),
		byCount: append([][]int32(nil), ix.byCount...),
	}
	for i, v := range vecs {
		id := int32(ix.n + i)
		ones := 0
		v.ForEach(func(r int) {
			next.lists[r] = append(next.lists[r], id)
			ones++
		})
		next.byCount[ones] = append(next.byCount[ones], id)
	}
	return next
}

// Union k-way-merges sorted id lists into their ascending union.
func Union(lists ...[]int32) []int32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	// Iterative pairwise merging, smallest pair sizes first, behaves like
	// a k-way heap merge without the per-element heap traffic: posting
	// lists are typically few (the query's matched dimensions).
	out := merge2(lists[0], lists[1])
	for _, l := range lists[2:] {
		out = merge2(out, l)
	}
	return out
}

func merge2(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Intersect k-way-intersects sorted id lists, galloping through the
// shortest list. An empty input set intersects to nil.
func Intersect(lists ...[]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	// Start from the shortest list: the result can only shrink.
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}
	out := append([]int32(nil), lists[shortest]...)
	for i, l := range lists {
		if i == shortest || len(out) == 0 {
			continue
		}
		kept := out[:0]
		j := 0
		for _, id := range out {
			j += search(l[j:], id)
			if j < len(l) && l[j] == id {
				kept = append(kept, id)
			}
		}
		out = kept
	}
	return out
}

// search returns the first position in the sorted slice l at or after
// which id could appear (sort.Search specialized to int32 to keep the
// intersection loop allocation- and interface-free).
func search(l []int32, id int32) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fallbackFraction is the cost model's pivot: pruning pays only while
// the work it saves dominates its own overhead (gathering and merging
// the matched lists, the binary searches of the unmatched walk). The
// estimated pruned cost is the matched posting mass plus the k results
// wanted; at half the flat scan's n the constant factors eat the win,
// so Plan falls back.
const fallbackFraction = 2 // prune while (matched + k) * fallbackFraction < n

// Plan decides whether pruned evaluation beats the flat scan for a
// query with feature vector q wanting a k-ranking. It returns nil when
// the flat scan is the better plan: the query's matched dimensions
// cover too much of the collection (the adaptive cost model above), p
// is zero (no dimensions — every score degenerates), or q spans a
// different dimensionality than the index.
func (ix *Index) Plan(q *vecspace.BitVector, k int) *Plan {
	// k >= n wants the whole ranking; the flat scan produces exactly
	// that with none of the pruning overhead. (The early return also
	// keeps the cost arithmetic below far from int overflow for the
	// huge verification depths a large VerifyFactor can request.)
	if ix.p == 0 || q.Len() != ix.p || k <= 0 || k >= ix.n {
		return nil
	}
	matchedSize := 0
	var lists [][]int32
	q.ForEach(func(r int) {
		matchedSize += len(ix.lists[r])
		lists = append(lists, ix.lists[r])
	})
	if (matchedSize+k)*fallbackFraction >= ix.n {
		return nil
	}
	return &Plan{
		QueryOnes: len(lists),
		Matched:   Union(lists...),
		ix:        ix,
	}
}

// Plan is a pruned scan plan for one query: the ids that share at least
// one dimension with the query (whose distances need their vectors) and
// an iterator over everything else in ascending score order.
type Plan struct {
	// QueryOnes is |F(q)|, the query's set-bit count.
	QueryOnes int
	// Matched is the ascending union of the matched dimensions' posting
	// lists. Tombstoned ids are included; the scan filters them exactly
	// as the flat scan does.
	Matched []int32
	ix      *Index
}

// Rest yields every id NOT in Matched in ascending (ones, id) order —
// which for unmatched ids is exactly ascending (distance, id) order —
// together with its ones count, until yield returns false or the ids
// are exhausted.
func (p *Plan) Rest(yield func(id, ones int32) bool) {
	for c, bucket := range p.ix.byCount {
		for _, id := range bucket {
			// Skip ids on a matched posting list; Matched is sorted, so
			// membership is one binary search.
			if i := search(p.Matched, id); i < len(p.Matched) && p.Matched[i] == id {
				continue
			}
			if !yield(id, int32(c)) {
				return
			}
		}
	}
}
