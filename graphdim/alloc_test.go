package graphdim

import (
	"context"
	"math/rand"
	"testing"
)

// TestSearchAllocsBounded pins the O(1)-allocations property of a warm
// query on the uncached Index path: once the scratch pool is primed, a
// repeated mapped Search — flat, pruned, with a dense query that runs a
// real VF2 search per dimension, and on a never-searched index right
// after an Add — must stay under a small fixed ceiling per call,
// independent of the database size and of the dimension count. The
// ceiling covers only per-query fixed costs (the query's mapped vector
// and the one matcher scratch behind it, the copied-out results, the
// SearchResult, a pruned plan's slices); it fails loudly if a future
// change reintroduces per-candidate or per-dimension allocation, which
// would scale with n or p and blow far past it.
func TestSearchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(42))
	idx, db := equivBuild(t, rng, 500)
	ctx := context.Background()
	// A minimal query: the VF2 mapping's size filter rejects every
	// multi-vertex dimension immediately, so the measurement isolates
	// the scan. The dense case below is a database graph: every
	// dimension it is large enough for costs a VF2 search, all of them
	// through compiled patterns and one scratch.
	q := NewGraph(1)
	dense := db[0]
	for _, g := range db {
		if g.M() > dense.M() {
			dense = g
		}
	}

	fresh, _ := equivBuild(t, rng, 500) // never searched before its Add
	if _, err := fresh.Add(q); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		idx  *Index
		q    *Graph
		opt  SearchOptions
	}{
		{"flat", idx, q, SearchOptions{K: 10, NoPrune: true}},
		{"pruned", idx, q, SearchOptions{K: 10}},
		{"dense", idx, dense, SearchOptions{K: 10, NoPrune: true}},
		{"fresh-add", fresh, q, SearchOptions{K: 10, NoPrune: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm up: grow the pooled scratch to the collection's
			// high-water mark and fault in the pool caches.
			for i := 0; i < 5; i++ {
				if _, err := tc.idx.Search(ctx, tc.q, tc.opt); err != nil {
					t.Fatal(err)
				}
			}
			const ceiling = 40
			avg := testing.AllocsPerRun(50, func() {
				if _, err := tc.idx.Search(ctx, tc.q, tc.opt); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.1f allocs per warm query", tc.name, avg)
			if avg > ceiling {
				t.Fatalf("%s: warm Search allocates %.1f objects per query, ceiling %d — "+
					"a per-candidate allocation has crept back into the scan", tc.name, avg, ceiling)
			}
		})
	}
}

// TestCollectionSearchAllocsBounded is the same pin one layer up: a warm
// predicate-free mapped search over a 2-shard collection maps the query
// once and hands each shard its limits as data, so what it allocates is
// the per-query fixed costs above plus a fixed amount per shard (its
// result, the id translation, a fan-out goroutine) — nothing that grows
// with the shard sizes or the dimension count.
func TestCollectionSearchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(43))
	idx, db := equivBuild(t, rng, 500)
	c, err := newTestStore(t).CreateFromIndex("c", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := SearchOptions{K: 10, NoPrune: true}
	for i := 0; i < 5; i++ {
		if _, err := c.Search(ctx, db[i], opt); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 40
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		if _, err := c.Search(ctx, db[i%len(db)], opt); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.1f allocs per warm 2-shard query", avg)
	if avg > ceiling {
		t.Fatalf("warm 2-shard Collection.Search allocates %.1f objects per query, ceiling %d", avg, ceiling)
	}
}

// TestVerifiedSearchAllocsBounded pins the verify stage the same way: a
// warm K=10, factor-3 verified search runs 30 budgeted MCS searches of
// up to 300 tree nodes each, all inside pooled solver arenas, so what it
// allocates is the mapped search's fixed costs plus the candidate list —
// nothing per MCS call and nothing per tree node. Before the arena
// solver the same search allocated ~900 objects per call, ~27,000 per
// query; doubling the factor here may add a handful, not thousands.
func TestVerifiedSearchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(44))
	idx, db := equivBuild(t, rng, 500)
	ctx := context.Background()
	measure := func(factor int) float64 {
		opt := SearchOptions{K: 10, Engine: EngineVerified, VerifyFactor: factor}
		i := 0
		search := func() {
			res, err := idx.Search(ctx, db[i%len(db)], opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Candidates != 10*factor {
				t.Fatalf("verified %d candidates, want %d", res.Candidates, 10*factor)
			}
			i++
		}
		for range 5 {
			search()
		}
		return testing.AllocsPerRun(50, search)
	}
	const ceiling = 60
	three, six := measure(3), measure(6)
	t.Logf("%.1f allocs per warm verified query at factor 3, %.1f at factor 6", three, six)
	if three > ceiling {
		t.Fatalf("warm verified Search allocates %.1f objects per query, ceiling %d — "+
			"a per-call or per-node allocation has crept back into the MCS solver", three, ceiling)
	}
	if six > three+10 {
		t.Fatalf("verifying 60 candidates allocates %.1f objects against %.1f for 30: allocation scales with MCS calls", six, three)
	}
}
