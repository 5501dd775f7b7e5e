package graphdim

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
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
		res, err := sh.Search(context.Background(), q, opt)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for _, r := range res.Results {
			all = append(all, Result{ID: sh.snap.Load().globals[r.ID], Distance: r.Distance})
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
	p := len(c.shards[0].Dimensions())
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
			first, err := c.shards[0].Search(context.Background(), q, opt)
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
	dims := c.shards[0].dims
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
		if sh.dims != dims {
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

// TestReadersSeeOneShardState: a shard is one published snapshot, so
// whatever a reader is shown under a global id is the graph that id names —
// while writers Add, Remove and Compact beside it. Every (id, graph) a
// predicate sees, and every id a search or a scan returns, must resolve
// through Collection.Graph to that same graph; an id Compact has already
// reclaimed is held to the writers' own record of what they added under it.
// No id appears twice in one result, and every snapshot a reader can load
// is coherent on its own: equal-length columns, a strictly ascending id
// table, every id on the shard it places on. Run under -race (make race).
func TestReadersSeeOneShardState(t *testing.T) {
	const shards = 3
	db := dataset.Chemical(dataset.ChemConfig{N: 24, MinVertices: 8, MaxVertices: 12, Seed: 41})
	idx, err := Build(db, Options{Dimensions: 10, Tau: 0.2, MCSBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(StoreOptions{})
	defer s.Close()
	c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// added records, before any Remove can name it, the graph every id was
	// assigned to; live is the writers' view of what is removable.
	var mu sync.Mutex
	added := make(map[int]*Graph)
	var live []int
	for id, g := range db {
		added[id] = g
		live = append(live, id)
	}
	// names holds id to g: through the collection while the id resolves,
	// through the record once it is reclaimed.
	names := func(who string, id int, g *Graph) {
		if got, ok := c.Graph(id); ok {
			if g != nil && got != g {
				t.Errorf("%s: shown id %d with a graph that is not Graph(%d)", who, id, id)
			}
			return
		}
		mu.Lock()
		rec, ok := added[id]
		mu.Unlock()
		if !ok {
			t.Errorf("%s: id %d neither resolves nor was ever added", who, id)
		} else if g != nil && rec != g {
			t.Errorf("%s: shown reclaimed id %d with a graph other than the one added under it", who, id)
		}
	}
	distinct := func(who string, ids []int) {
		seen := make(map[int]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				t.Errorf("%s: id %d returned twice in one result", who, id)
			}
			seen[id] = true
			names(who, id, nil)
		}
	}

	var writers, readers sync.WaitGroup
	done, grown := make(chan struct{}), make(chan struct{})
	var adds, compactions atomic.Int64
	extra := dataset.Chemical(dataset.ChemConfig{N: 300, MinVertices: 8, MaxVertices: 12, Seed: 77})
	writers.Add(2)
	go func() { // grows the collection
		defer writers.Done()
		defer close(grown)
		for len(extra) > 0 {
			n := min(1+len(extra)%3, len(extra))
			ids, err := c.Add(ctx, extra[:n]...)
			if err != nil {
				t.Errorf("Add: %v", err)
				return
			}
			mu.Lock()
			for i, id := range ids {
				added[id] = extra[i]
				live = append(live, id)
			}
			mu.Unlock()
			extra = extra[n:]
			adds.Add(1)
		}
	}()
	go func() { // shrinks it: tombstones the oldest live id, then reclaims it
		defer writers.Done()
		for round := 0; ; round++ {
			select {
			case <-grown:
				if round >= 50 {
					return
				}
			default:
			}
			mu.Lock()
			if len(live) == 0 { // outran the grower
				mu.Unlock()
				runtime.Gosched()
				continue
			}
			victim := live[0]
			live = live[1:]
			mu.Unlock()
			if err := c.Remove(victim); err != nil {
				t.Errorf("Remove(%d): %v", victim, err)
				return
			}
			n, err := c.Compact(ctx)
			if err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
			compactions.Add(int64(n))
		}
	}()

	reader := func(body func(i int)) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					body(i)
				}
			}
		}()
	}
	results := func(res *SearchResult) []int {
		ids := make([]int, len(res.Results))
		for i, r := range res.Results {
			ids[i] = r.ID
		}
		return ids
	}
	reader(func(i int) {
		res, err := c.Search(ctx, db[i%len(db)], SearchOptions{K: 1000, NoPrune: i%2 == 0,
			Predicate: func(id int, g *Graph) bool { names("predicate", id, g); return true }})
		if err != nil {
			t.Errorf("predicate search: %v", err)
			return
		}
		distinct("predicate search", results(res))
	})
	reader(func(i int) {
		res, err := c.Search(ctx, db[i%len(db)], SearchOptions{K: 5, Engine: EngineVerified})
		if err != nil {
			t.Errorf("verified search: %v", err)
			return
		}
		distinct("verified search", results(res))
	})
	reader(func(i int) {
		res, err := c.Query(ctx, &pipeline.Pipeline{Stages: []pipeline.Stage{
			{Filter: &pipeline.Filter{MinVertices: 1}}, {Limit: &pipeline.Limit{N: 1000}},
		}})
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		ids := make([]int, len(res.Rows))
		for j, r := range res.Rows {
			ids[j] = r.ID
		}
		distinct("scan", ids)
	})
	reader(func(i int) {
		sh := i % shards
		snap := c.shards[sh].snap.Load()
		if n := len(snap.db); len(snap.globals) != n || len(snap.dead) != n || snap.block.N() != n || snap.post.N() != n {
			t.Errorf("shard %d: columns of one snapshot disagree: db %d, globals %d, dead %d, block %d, postings %d",
				sh, n, len(snap.globals), len(snap.dead), snap.block.N(), snap.post.N())
			return
		}
		for local, g := range snap.globals {
			if placeID(g, shards) != sh || (local > 0 && snap.globals[local-1] >= g) {
				t.Errorf("shard %d: id table entry %d = %d is misplaced or out of order", sh, local, g)
				return
			}
		}
	})

	writers.Wait()
	close(done)
	readers.Wait()
	if adds.Load() == 0 || compactions.Load() == 0 {
		t.Fatalf("writers did nothing to race: %d adds, %d shard compactions", adds.Load(), compactions.Load())
	}
}
