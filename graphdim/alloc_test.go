package graphdim

import (
	"context"
	"math/rand"
	"testing"
)

// TestSearchAllocsBounded pins the O(1)-allocations property of a warm
// query on the uncached Index path: once the scratch pool is primed, a
// repeated mapped Search — flat, pruned, and on a never-searched index
// right after an Add — must stay under a small fixed ceiling per call,
// independent of the database size. The ceiling covers only per-query
// fixed costs (the query's mapped vector, the copied-out results, the
// SearchResult, a pruned plan's slices); it fails loudly if a future
// change reintroduces per-candidate allocation, which would scale with
// n and blow far past it.
func TestSearchAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(42))
	idx, _ := equivBuild(t, rng, 500)
	ctx := context.Background()
	// A minimal query: the VF2 mapping's size filter rejects every
	// multi-vertex dimension immediately, so the measurement isolates
	// the scan, not the matcher (whose state is per-call by design).
	q := NewGraph(1)

	fresh, _ := equivBuild(t, rng, 500) // never searched before its Add
	if _, err := fresh.Add(q); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		idx  *Index
		opt  SearchOptions
	}{
		{"flat", idx, SearchOptions{K: 10, NoPrune: true}},
		{"pruned", idx, SearchOptions{K: 10}},
		{"fresh-add", fresh, SearchOptions{K: 10, NoPrune: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm up: grow the pooled scratch to the collection's
			// high-water mark and fault in the pool caches.
			for i := 0; i < 5; i++ {
				if _, err := tc.idx.Search(ctx, q, tc.opt); err != nil {
					t.Fatal(err)
				}
			}
			const ceiling = 40
			avg := testing.AllocsPerRun(50, func() {
				if _, err := tc.idx.Search(ctx, q, tc.opt); err != nil {
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
