// Package posting holds inverted lists over a database: the per-label
// lists (labels.go) that answer a filter's vertex- and edge-label
// predicates, and the per-dimension lists and ones-count buckets of
// Index. A filter's label predicates set their lists' ids into the keep
// bitset the scan is limited to (see internal/pipeline's Compile);
// dimension and ones predicates read the vector tiles instead
// (vecspace.Block.Keep), so no query builds an Index. Index, with
// FromVectors, Append, Union and Plan, serves only the benchmark
// harness's trace replay (bench/trace.go), and ROADMAP 3(a) deletes it.
//
// An index is immutable to readers. Append extends it with new ids
// (graph ids are assigned densely ascending, so appended postings keep
// every list sorted) and returns a new index that shares the untouched
// tails of the old one; Appends must be serialized by the caller and
// only ever applied to the newest index of a chain — graphdim extends
// its label index under its writer lock. Removals are not posting
// events: tombstoned ids stay listed and are skipped by the scan's
// tombstone bitset.
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
	// c set bits: the buckets Plan's Rest walks.
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

// N returns the number of ids covered (ids are exactly [0, N)).
func (ix *Index) N() int { return ix.n }

// P returns the dimensionality.
func (ix *Index) P() int { return ix.p }

// List returns dimension r's posting list. The slice is owned by the
// index and must not be modified; it exists for serialization and
// introspection.
func (ix *Index) List(r int) []int32 { return ix.lists[r] }

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

// search returns the first position in the sorted slice l at or after
// which id could appear (sort.Search specialized to int32 to keep Rest's
// membership test allocation- and interface-free).
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

// fallbackFraction is Plan's cost-model pivot: it plans a pruned scan
// only while (matched + k) * fallbackFraction < n.
const fallbackFraction = 2

// Plan, its cost model and Plan.Rest are the posting-list scan plan no
// query runs any more: the flat scan ranks identically and, with the
// zone map, won every workload the plan was measured on. Only the
// benchmark's trace replay (bench/trace.go) still calls them, to report
// the layer's counters; they go with the benchmark change that drops
// that replay.
//
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
