package graphdim

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/segment"
)

// mapCountCtx counts the cancellation checks made from inside
// Mapper.MapContext, which makes exactly one per dimension: on a context
// that is never cancelled, count ÷ p is the number of times a search
// mapped its query. Checks from anywhere else (the scan's stride, the
// worker budget) are not counted, so the tally is exact without any
// counter in the program.
type mapCountCtx struct {
	context.Context
	checks atomic.Int64
}

func (c *mapCountCtx) Err() error {
	var pc [1]uintptr
	if runtime.Callers(2, pc[:]) == 1 {
		f, _ := runtime.CallersFrames(pc[:]).Next()
		if strings.HasSuffix(f.Function, "vecspace.(*Mapper).MapContext") {
			c.checks.Add(1)
		}
	}
	return c.Context.Err()
}

// mergeOfShardSearches is the reference a fan-out is held to: every
// shard's own Index.Search (which maps for itself), translated to global
// ids and merged by (distance, id).
func mergeOfShardSearches(t *testing.T, c *Collection, q *Graph, opt SearchOptions) []Result {
	t.Helper()
	var all []Result
	for i, sh := range c.shards {
		st := sh.state.Load()
		res, err := st.idx.Search(context.Background(), q, opt)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for _, r := range res.Results {
			all = append(all, Result{ID: st.globals[r.ID], Distance: r.Distance})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > opt.K {
		all = all[:opt.K]
	}
	return all
}

// TestCollectionMapsOncePerDimensionSet: a collection has one dimension
// set, so a 4-shard search maps its query exactly once — before a
// Compact, after one, and after further writes — with the merged ranking
// equal to the merge of per-shard searches and Matched equal to the
// first shard's own view.
func TestCollectionMapsOncePerDimensionSet(t *testing.T) {
	db := storeTestDB(t, 48, 21)
	s := newTestStore(t)
	c, err := s.Create(context.Background(), "c", db, CollectionOptions{Shards: 4, Build: storeTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	p := len(c.shards[0].state.Load().idx.Dimensions())
	queries := storeTestDB(t, 6, 22)
	opt := SearchOptions{K: 7}

	check := func(label string, wantChecks int) {
		t.Helper()
		for qi, q := range queries {
			ctx := &mapCountCtx{Context: context.Background()}
			res, err := c.Search(ctx, q, opt)
			if err != nil {
				t.Fatalf("%s query %d: %v", label, qi, err)
			}
			if got := int(ctx.checks.Load()); got != wantChecks {
				t.Fatalf("%s query %d: MapContext checked ctx %d times, want %d (p = %d)", label, qi, got, wantChecks, p)
			}
			sameResults(t, label, res.Results, mergeOfShardSearches(t, c, q, opt))
			first, err := c.shards[0].state.Load().idx.Search(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Matched, first.Matched) {
				t.Fatalf("%s query %d: Matched %v of %d dimensions, the first shard maps it to %v of %d",
					label, qi, res.Matched.Indices(), res.Matched.Len(), first.Matched.Indices(), first.Matched.Len())
			}
		}
	}
	check("as built", p)

	// Tombstone one graph and reclaim it: exactly its shard repacks, over
	// the same dimensions — digest, mapper and all.
	dims := c.shards[0].state.Load().idx.dims
	if err := c.Remove(5); err != nil {
		t.Fatal(err)
	}
	check("one tombstone", p)
	if n, err := c.Compact(context.Background()); err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v; want exactly the shard holding the tombstone", n, err)
	}
	check("after Compact", p)
	if _, err := c.Add(context.Background(), storeTestDB(t, 8, 23)...); err != nil {
		t.Fatal(err)
	}
	check("Add after Compact", p)
	for i, sh := range c.shards {
		if sh.state.Load().idx.dims != dims {
			t.Fatalf("shard %d left the collection's dimension set", i)
		}
	}
}

// TestMappedSearchDecodesNothing: on a store reopened in MemoryMap mode,
// predicate-free mapped searches — flat and pruned, over shards that
// carry tombstones — rank straight from the mapped tiles and leave every
// graph payload undecoded; a verified search then decodes exactly the
// candidates it verified.
func TestMappedSearchDecodesNothing(t *testing.T) {
	if !segment.CanMap() {
		t.Skip("no mmap on this platform")
	}
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 90)
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(1, 2, 3, 4, 5, 6); err != nil { // tombstones on every shard, most likely
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = OpenStore(dir, StoreOptions{Memory: MemoryMap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, _ = s.Collection("c")
	decoded := func() int {
		n := 0
		for sh := range c.shards {
			snap, seg := snapSeg(c, sh)
			if seg == nil || len(seg.graphs) != len(snap.db) {
				t.Fatalf("shard %d is not served wholly from its mapped segment", sh)
			}
			for i := range seg.graphs {
				if seg.graphs[i].Load() != nil || snap.db[i] != nil {
					n++
				}
			}
		}
		return n
	}
	dead := 0
	for sh := range c.shards {
		snap, _ := snapSeg(c, sh)
		dead += snap.deadCount
	}
	if dead != 6 {
		t.Fatalf("reopened store carries %d tombstones, want 6", dead)
	}

	for qi := 0; qi < 12; qi++ {
		q := db[rng.Intn(len(db))]
		for _, opt := range []SearchOptions{{K: 8}, {K: 8, NoPrune: true}, {K: 200, NoPrune: true}} {
			res, err := c.Search(ctx, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) == 0 {
				t.Fatalf("query %d: no results", qi)
			}
		}
	}
	if n := decoded(); n != 0 {
		t.Fatalf("predicate-free mapped searches decoded %d graph payloads, want none", n)
	}

	res, err := c.Search(ctx, db[0], SearchOptions{K: 4, Engine: EngineVerified, VerifyFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := decoded(); n != res.Candidates || n == 0 {
		t.Fatalf("a verified search of %d candidates decoded %d payloads", res.Candidates, n)
	}
}

// TestCollectionSearchNilQuery: the nil-query error is the collection's
// own now that it maps before fanning out — cached or not.
func TestCollectionSearchNilQuery(t *testing.T) {
	for _, cache := range []CacheOptions{{}, {MaxEntries: 4}} {
		c, _ := cacheTestCollection(t, cache)
		_, err := c.Search(context.Background(), nil, SearchOptions{K: 3})
		if err == nil || err.Error() != "graphdim: nil query" {
			t.Fatalf("cache %+v: Search(nil) = %v, want the nil-query error", cache, err)
		}
	}
}

// TestEmptyIDTableScansNothing: a shard state whose id table is empty —
// the table an Add has not extended yet — contributes nothing to a
// search, for every engine and under a predicate; an empty table is a
// bound of zero ids, not the absence of a bound.
func TestEmptyIDTableScansNothing(t *testing.T) {
	c, queries := cacheTestCollection(t, CacheOptions{})
	if len(c.shards) < 2 {
		t.Fatal("need a sharded collection")
	}
	st := c.shards[0].state.Load()
	if st.idx.Size() == 0 {
		t.Fatal("shard 0 is empty; nothing to prove")
	}
	owned := make(map[int]bool, len(st.globals))
	for _, g := range st.globals {
		owned[g] = true
	}
	c.shards[0].state.Store(&shardState{idx: st.idx, globals: nil})
	for _, opt := range []SearchOptions{
		{K: 1000},
		{K: 1000, NoPrune: true},
		{K: 5, Engine: EngineVerified},
		{K: 1000, Engine: EngineExact},
		{K: 1000, Predicate: func(int, *Graph) bool { return true }},
	} {
		res, err := c.Search(context.Background(), queries[0], opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if len(res.Results) == 0 {
			t.Fatalf("%+v: the other shards returned nothing", opt)
		}
		for _, r := range res.Results {
			if owned[r.ID] {
				t.Fatalf("%+v: id %d came from the shard whose table is empty", opt, r.ID)
			}
		}
	}
}
