package graphdim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// cacheTestCollection builds a small cached collection.
func cacheTestCollection(t *testing.T, cache CacheOptions) (*Collection, []*Graph) {
	t.Helper()
	db := dataset.Chemical(dataset.ChemConfig{N: 24, MinVertices: 8, MaxVertices: 12, Seed: 41})
	idx, err := Build(db, Options{Dimensions: 10, Tau: 0.2, MCSBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(StoreOptions{})
	t.Cleanup(s.Close)
	coll, err := s.CreateFromIndex("cached", idx, CollectionOptions{
		Shards: 2,
		Build:  Options{Dimensions: 10, Tau: 0.2, MCSBudget: 1000},
		Cache:  cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coll, db
}

func mustStats(t *testing.T, c *Collection) CacheStats {
	t.Helper()
	st, ok := c.CacheStats()
	if !ok {
		t.Fatal("CacheStats: cache disabled")
	}
	return st
}

func TestCacheHitsRepeatAndStaysCorrect(t *testing.T) {
	coll, db := cacheTestCollection(t, CacheOptions{MaxEntries: 64})
	ctx := context.Background()
	opt := SearchOptions{K: 6}

	first, err := coll.Search(ctx, db[3], opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, coll); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after miss: %+v", st)
	}
	second, err := coll.Search(ctx, db[3], opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, coll); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after hit: %+v", st)
	}
	if !reflect.DeepEqual(first.Results, second.Results) ||
		first.Candidates != second.Candidates || first.Engine != second.Engine {
		t.Fatalf("cached result diverged: %+v vs %+v", first, second)
	}
	// A caller mutating its result must not corrupt the cache.
	second.Results[0].ID = -1
	third, err := coll.Search(ctx, db[3], opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Results, third.Results) {
		t.Fatal("mutating a returned result corrupted the cache")
	}
	// Different options are different entries.
	if _, err := coll.Search(ctx, db[3], SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, coll); st.Entries != 2 {
		t.Fatalf("k=3 should be a new entry: %+v", st)
	}
	// Equivalent spellings share one entry: the mapped engine ignores
	// VerifyFactor/MaxCandidates/Metric, so setting them must still hit
	// the k=3 entry, and verified factor 0 means 3.
	if _, err := coll.Search(ctx, db[3], SearchOptions{K: 3, VerifyFactor: 7, MaxCandidates: 9}); err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, coll); st.Entries != 2 || st.Hits != 3 {
		t.Fatalf("ignored-field spelling missed the cache: %+v", st)
	}
	if _, err := coll.Search(ctx, db[3], SearchOptions{K: 3, Engine: EngineVerified}); err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Search(ctx, db[3], SearchOptions{K: 3, Engine: EngineVerified, VerifyFactor: 3}); err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, coll); st.Entries != 3 || st.Hits != 4 {
		t.Fatalf("verified factor 0 and 3 did not share an entry: %+v", st)
	}

	// Predicate queries bypass the cache entirely: no lookup, no entry.
	before := mustStats(t, coll)
	if _, err := coll.Search(ctx, db[3], SearchOptions{K: 3, Predicate: func(int, *Graph) bool { return true }}); err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, coll); st != before {
		t.Fatalf("predicate query touched the cache: %+v then %+v", before, st)
	}
}

func TestCacheInvalidatesOnMutationAndCompaction(t *testing.T) {
	coll, db := cacheTestCollection(t, CacheOptions{MaxEntries: 64})
	ctx := context.Background()
	opt := SearchOptions{K: 50}

	if _, err := coll.Search(ctx, db[0], opt); err != nil {
		t.Fatal(err)
	}
	// Add: the same query must see the new graph, not the cached set.
	extra := dataset.Chemical(dataset.ChemConfig{N: 1, MinVertices: 8, MaxVertices: 12, Seed: 42})
	ids, err := coll.Add(ctx, extra...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coll.Search(ctx, db[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Results {
		if r.ID == ids[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("search after Add served a stale cached result")
	}
	// Remove: the removed id must disappear immediately.
	if err := coll.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	res, err = coll.Search(ctx, db[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if r.ID == ids[0] {
			t.Fatal("search after Remove served a stale cached result")
		}
	}
	st := mustStats(t, coll)
	if st.Invalidations == 0 {
		t.Fatalf("generation moves produced no invalidations: %+v", st)
	}
	// Compact's reclaim swap bumps the generation too: the entry cached
	// just above (over the tombstone the Remove left) must not serve again.
	st = mustStats(t, coll)
	pre := coll.generations()
	if n, err := coll.Compact(ctx); err != nil || n != 1 {
		t.Fatalf("Compact = (%d, %v), want the one shard holding the tombstone", n, err)
	}
	if reflect.DeepEqual(pre, coll.generations()) {
		t.Fatal("compaction did not move any shard generation")
	}
	if _, err := coll.Search(ctx, db[0], opt); err != nil {
		t.Fatal(err)
	}
	if got := mustStats(t, coll); got.Invalidations <= st.Invalidations {
		t.Fatalf("compaction swap did not invalidate: %+v then %+v", st, got)
	}
}

func TestCacheBounds(t *testing.T) {
	coll, db := cacheTestCollection(t, CacheOptions{MaxEntries: 2})
	ctx := context.Background()
	for k := 1; k <= 4; k++ {
		if _, err := coll.Search(ctx, db[1], SearchOptions{K: k}); err != nil {
			t.Fatal(err)
		}
	}
	st := mustStats(t, coll)
	if st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("entry bound not enforced: %+v", st)
	}
	// k=4 (most recent) must still be cached; k=1 must have been evicted.
	if _, err := coll.Search(ctx, db[1], SearchOptions{K: 4}); err != nil {
		t.Fatal(err)
	}
	if got := mustStats(t, coll); got.Hits != st.Hits+1 {
		t.Fatalf("most recent entry was evicted: %+v", got)
	}

	// A byte bound small enough excludes everything without erroring.
	tiny, db2 := cacheTestCollection(t, CacheOptions{MaxEntries: 8, MaxBytes: 1})
	if _, err := tiny.Search(ctx, db2[0], SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, tiny); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry was cached: %+v", st)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	coll, db := cacheTestCollection(t, CacheOptions{})
	if _, ok := coll.CacheStats(); ok {
		t.Fatal("zero CacheOptions enabled a cache")
	}
	if _, err := coll.Search(context.Background(), db[0], SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if st := coll.Stats(); st.Cache != nil {
		t.Fatalf("stats report a cache on an uncached collection: %+v", st.Cache)
	}
}

func TestCacheOptionsValidate(t *testing.T) {
	for _, opt := range []CacheOptions{{MaxEntries: -1}, {MaxEntries: 1, MaxBytes: -5}} {
		if err := (CollectionOptions{Cache: opt}).validate(); err == nil {
			t.Errorf("CacheOptions %+v accepted", opt)
		}
	}
}

// TestCacheSurvivesStoreReload pins that cache *configuration* persists
// while cache *contents* do not: a reloaded store starts cold with the
// same bounds.
func TestCacheSurvivesStoreReload(t *testing.T) {
	coll, db := cacheTestCollection(t, CacheOptions{MaxEntries: 16, MaxBytes: 1 << 20})
	ctx := context.Background()
	if _, err := coll.Search(ctx, db[0], SearchOptions{K: 4}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := coll.store.Save(dir); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rc, ok := re.Collection("cached")
	if !ok {
		t.Fatal("collection missing after reload")
	}
	st, ok := rc.CacheStats()
	if !ok {
		t.Fatal("cache configuration did not persist")
	}
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("reloaded cache is not cold: %+v", st)
	}
	if rc.cacheOpt != coll.cacheOpt {
		t.Fatalf("cache bounds changed across reload: %+v vs %+v", rc.cacheOpt, coll.cacheOpt)
	}
	// And it works: same query twice, second is a hit.
	for i := 0; i < 2; i++ {
		if _, err := rc.Search(ctx, db[0], SearchOptions{K: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if st := mustStats(t, rc); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("reloaded cache not serving: %+v", st)
	}
}
