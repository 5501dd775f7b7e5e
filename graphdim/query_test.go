package graphdim

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// queryTestCollection builds a small deterministic collection for
// Query behavior tests (stats, stage errors, caching).
func queryTestCollection(t *testing.T, shards int, cache CacheOptions) (*Collection, *Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	idx, _ := equivBuild(t, rng, 60)
	s := NewStore(StoreOptions{})
	t.Cleanup(func() { s.Close() })
	c, err := s.CreateFromIndex("q", idx, CollectionOptions{Shards: shards, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return c, idx
}

func TestQueryScanStats(t *testing.T) {
	c, idx := queryTestCollection(t, 2, CacheOptions{})
	ctx := context.Background()

	// A pushable label filter plus a residual count range: the stats
	// must report the split, and the count must match a brute force.
	lab := int(graphOf(idx, 0).VertexLabel(0))
	f := &pipeline.Filter{
		VertexLabels: []pipeline.LabelCount{{Label: lab}},
		MinVertices:  2,
	}
	res, err := c.Query(ctx, &pipeline.Pipeline{Stages: []pipeline.Stage{
		{Filter: f}, {Count: &pipeline.Count{}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	snap := idx.snap.Load()
	for id := range snap.db {
		g := graphOf(idx, id)
		if snap.isDead(id) || g.N() < 2 {
			continue
		}
		vh, _ := g.LabelHistogram()
		if vh[Label(lab)] >= 1 {
			want++
		}
	}
	if res.Count == nil || *res.Count != want {
		t.Fatalf("count %v, want %d", res.Count, want)
	}
	if res.Stats.Matched != want {
		t.Fatalf("stats.matched %d, want %d", res.Stats.Matched, want)
	}
	if res.Stats.PushedPredicates != 1 || res.Stats.FallbackPredicates != 1 {
		t.Fatalf("pushdown split %d/%d, want 1/1", res.Stats.PushedPredicates, res.Stats.FallbackPredicates)
	}
	if res.Stats.Candidates < want || res.Stats.Candidates > int64(len(snap.db)) {
		t.Fatalf("candidates %d outside [%d, %d]", res.Stats.Candidates, want, len(snap.db))
	}
	if len(res.Stats.Stages) != 2 || res.Stats.Stages[0].Stage != "scan" || res.Stats.Stages[1].Stage != "aggregate" {
		t.Fatalf("stage timings %+v, want scan+aggregate", res.Stats.Stages)
	}

	// An unrestricted scan reports candidates = -1 (no pushdown).
	res, err = c.Query(ctx, &pipeline.Pipeline{Stages: []pipeline.Stage{
		{Filter: &pipeline.Filter{MinVertices: 1}}, {Count: &pipeline.Count{}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != -1 {
		t.Fatalf("unrestricted scan candidates %d, want -1", res.Stats.Candidates)
	}
}

// TestScanCandidatesCountOnlyLiveIDs pins that a scan's candidates are
// the live ids its pushed-down predicates keep: removing one of them
// lowers the count by one.
func TestScanCandidatesCountOnlyLiveIDs(t *testing.T) {
	c, idx := queryTestCollection(t, 2, CacheOptions{})
	ctx := context.Background()
	lab := int(graphOf(idx, 0).VertexLabel(0))
	count := &pipeline.Pipeline{Stages: []pipeline.Stage{
		{Filter: &pipeline.Filter{VertexLabels: []pipeline.LabelCount{{Label: lab}}}}, {Count: &pipeline.Count{}},
	}}
	before, err := c.Query(ctx, count)
	if err != nil {
		t.Fatal(err)
	}
	if before.Stats.Candidates != *before.Count {
		t.Fatalf("candidates %d, want the %d kept ids", before.Stats.Candidates, *before.Count)
	}
	if err := c.Remove(0); err != nil { // graph 0 carries the label
		t.Fatal(err)
	}
	after, err := c.Query(ctx, count)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Candidates != before.Stats.Candidates-1 || *after.Count != *before.Count-1 {
		t.Fatalf("after removing a kept graph: candidates %d, count %d; want %d, %d",
			after.Stats.Candidates, *after.Count, before.Stats.Candidates-1, *before.Count-1)
	}
}

func TestQueryStageErrors(t *testing.T) {
	c, idx := queryTestCollection(t, 1, CacheOptions{})
	ctx := context.Background()
	p := len(idx.Dimensions())

	cases := []struct {
		name      string
		pipeline  *pipeline.Pipeline
		wantIndex int
		wantName  string
		wantMsg   string
	}{
		{
			"dims out of range",
			&pipeline.Pipeline{Stages: []pipeline.Stage{
				{Filter: &pipeline.Filter{MinVertices: 1}},
				{Filter: &pipeline.Filter{DimsAll: []int{p}}},
				{Count: &pipeline.Count{}},
			}},
			1, "filter", "out of range",
		},
		{
			"bad query spec",
			&pipeline.Pipeline{Stages: []pipeline.Stage{
				{Filter: &pipeline.Filter{}},
				{Search: &pipeline.Search{Query: &pipeline.GraphSpec{Labels: []int{1}, Edges: [][3]int{{0, 5, 0}}}, K: 3}},
			}},
			1, "search", "out of range",
		},
		{
			"topk without search",
			&pipeline.Pipeline{Stages: []pipeline.Stage{
				{Filter: &pipeline.Filter{}},
				{TopK: &pipeline.TopK{K: 2}},
			}},
			1, "topk", "needs a preceding search",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Query(ctx, tc.pipeline)
			if err == nil {
				t.Fatal("bad pipeline accepted")
			}
			var se *pipeline.StageError
			if !errors.As(err, &se) {
				t.Fatalf("want StageError, got %T: %v", err, err)
			}
			if se.Index != tc.wantIndex || se.Name != tc.wantName || !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("StageError{%d, %q, %v}, want index %d name %q msg ~%q",
					se.Index, se.Name, se.Err, tc.wantIndex, tc.wantName, tc.wantMsg)
			}
		})
	}
}

// TestQueryFilteredSearchCached is the cacheability satellite:
// declarative filters serialize into the generation-fenced cache key,
// so repeated filtered queries hit; opaque Predicate closures still
// bypass; and distinct filters never collide.
func TestQueryFilteredSearchCached(t *testing.T) {
	c, idx := queryTestCollection(t, 1, CacheOptions{MaxEntries: 32})
	ctx := context.Background()
	q := graphOf(idx, 3)
	lab := int(q.VertexLabel(0))

	run := func(f *pipeline.Filter) *pipeline.Result {
		t.Helper()
		stages := []pipeline.Stage{{Search: &pipeline.Search{G: q, K: 5}}}
		if f != nil {
			stages = append([]pipeline.Stage{{Filter: f}}, stages...)
		}
		res, err := c.Query(ctx, &pipeline.Pipeline{Stages: stages})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fa := &pipeline.Filter{VertexLabels: []pipeline.LabelCount{{Label: lab}}}
	fb := &pipeline.Filter{VertexLabels: []pipeline.LabelCount{{Label: lab, MinCount: 2}}}
	first := run(fa)
	st, ok := c.CacheStats()
	if !ok || st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("first filtered query should miss: %+v", st)
	}
	second := run(fa)
	st, _ = c.CacheStats()
	if st.Hits != 1 {
		t.Fatalf("repeat of the same filtered query should hit: %+v", st)
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("cache changed the answer: %d vs %d rows", len(first.Rows), len(second.Rows))
	}
	for i := range first.Rows {
		if first.Rows[i].ID != second.Rows[i].ID || *first.Rows[i].Distance != *second.Rows[i].Distance {
			t.Fatalf("cache changed row %d: %+v vs %+v", i, first.Rows[i], second.Rows[i])
		}
	}

	// A different filter must not collide with fa's entry.
	bRes := run(fb)
	st, _ = c.CacheStats()
	if st.Hits != 1 {
		t.Fatalf("distinct filter hit a stale entry: %+v", st)
	}
	if len(bRes.Rows) > len(first.Rows) {
		t.Fatalf("stricter filter returned more rows (%d > %d)", len(bRes.Rows), len(first.Rows))
	}

	// Opaque Predicate closures keep bypassing the cache entirely.
	for i := 0; i < 2; i++ {
		if _, err := c.Search(ctx, q, SearchOptions{K: 5, Predicate: func(int, *Graph) bool { return true }}); err != nil {
			t.Fatal(err)
		}
	}
	st2, _ := c.CacheStats()
	if st2.Hits != st.Hits || st2.Misses != st.Misses {
		t.Fatalf("Predicate search touched the cache: %+v vs %+v", st2, st)
	}

	// Mutating the collection fences the old entries out.
	if _, err := c.Add(ctx, graphOf(idx, 1)); err != nil {
		t.Fatal(err)
	}
	run(fa)
	st3, _ := c.CacheStats()
	if st3.Hits != st.Hits {
		t.Fatalf("filtered query hit across a generation change: %+v", st3)
	}
}

// TestQueryScanRows pins the bare-scan contract: rows stream out in id
// order, bounded by DefaultScanLimit, with no distances.
func TestQueryScanRows(t *testing.T) {
	c, idx := queryTestCollection(t, 3, CacheOptions{})
	ctx := context.Background()
	res, err := c.Query(ctx, &pipeline.Pipeline{Stages: []pipeline.Stage{
		{Filter: &pipeline.Filter{MinVertices: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != idx.snap.Load().live() {
		t.Fatalf("%d rows, want every live graph (%d)", len(res.Rows), idx.snap.Load().live())
	}
	for i, r := range res.Rows {
		if r.Distance != nil {
			t.Fatalf("scan row %d carries a distance", i)
		}
		if i > 0 && res.Rows[i-1].ID >= r.ID {
			t.Fatalf("rows out of id order at %d: %d then %d", i, res.Rows[i-1].ID, r.ID)
		}
	}
}

// uncachedQuery answers p through the plan runner alone — the answer a
// cached Query must reproduce.
func uncachedQuery(t *testing.T, c *Collection, p *pipeline.Pipeline) *pipeline.Result {
	t.Helper()
	pl, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var opt SearchOptions
	if pl.Search != nil {
		if opt, err = searchOptions(pl); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.runPlan(context.Background(), pl, opt, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// answerJSON is a result's answer — rows, count and groups — in wire
// form, without the stats' wall times.
func answerJSON(t *testing.T, res *pipeline.Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Rows   []pipeline.ResultRow
		Count  *int64
		Groups []pipeline.Group
	}{res.Rows, res.Count, res.Groups})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestQueryCachesScans: a repeated count and a repeated group_by are
// cache hits whose one stage is "cache", and an Add, a Remove and a
// Compact each fence them out, after which they answer for the new
// state.
func TestQueryCachesScans(t *testing.T) {
	c, idx := queryTestCollection(t, 2, CacheOptions{MaxEntries: 32})
	ctx := context.Background()
	count := &pipeline.Pipeline{Stages: []pipeline.Stage{
		{Filter: &pipeline.Filter{MinVertices: 1}}, {Count: &pipeline.Count{}},
	}}
	group := &pipeline.Pipeline{Stages: []pipeline.Stage{
		{Filter: &pipeline.Filter{MinVertices: 1}}, {GroupBy: &pipeline.GroupBy{Key: pipeline.KeyVertexLabel}},
	}}

	// query runs p twice and checks that the second run is a hit with
	// the first run's answer and plan-derived stats.
	query := func(p *pipeline.Pipeline) *pipeline.Result {
		t.Helper()
		before := mustStats(t, c)
		miss, err := c.Query(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := c.Query(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		after := mustStats(t, c)
		if after.Hits != before.Hits+1 || after.Misses != before.Misses+1 {
			t.Fatalf("a run and its repeat moved the counters %+v -> %+v, want one miss then one hit", before, after)
		}
		if got, want := answerJSON(t, hit), answerJSON(t, uncachedQuery(t, c, p)); got != want {
			t.Fatalf("hit answered %s, want %s", got, want)
		}
		if answerJSON(t, miss) != answerJSON(t, hit) {
			t.Fatalf("hit %s differs from the run it cached, %s", answerJSON(t, hit), answerJSON(t, miss))
		}
		ms, hs := miss.Stats, hit.Stats
		if hs.Matched != ms.Matched || hs.Candidates != ms.Candidates || hs.Engine != ms.Engine ||
			hs.PushedPredicates != ms.PushedPredicates || hs.FallbackPredicates != ms.FallbackPredicates {
			t.Fatalf("hit stats %+v, want the plan-derived fields of %+v", hs, ms)
		}
		if len(hs.Stages) != 1 || hs.Stages[0].Stage != "cache" || hs.Stages[0].ElapsedMS != hs.ElapsedMS {
			t.Fatalf("hit stages %+v (elapsed %v), want one cache stage of the hit's own time", hs.Stages, hs.ElapsedMS)
		}
		if len(ms.Stages) != 2 || ms.Stages[0].Stage != "scan" {
			t.Fatalf("miss stages %+v, want scan+aggregate", ms.Stages)
		}
		return hit
	}
	countOf := func() int64 { return *query(count).Count }
	query(group)
	n := countOf()
	if n != int64(idx.snap.Load().live()) {
		t.Fatalf("count %d, want %d", n, idx.snap.Load().live())
	}

	fenced := func(what string, wantCount int64) {
		t.Helper()
		inv := mustStats(t, c).Invalidations
		if got := countOf(); got != wantCount {
			t.Fatalf("count after %s = %d, want %d", what, got, wantCount)
		}
		query(group)
		if got := mustStats(t, c).Invalidations; got != inv+2 {
			t.Fatalf("%s invalidated %d entries, want the count's and the group_by's", what, got-inv)
		}
	}
	ids, err := c.Add(ctx, graphOf(idx, 0))
	if err != nil {
		t.Fatal(err)
	}
	fenced("an Add", n+1)
	if err := c.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	fenced("a Remove", n)
	if k, err := c.Compact(ctx); err != nil || k != 1 {
		t.Fatalf("Compact = (%d, %v), want the one shard holding the tombstone", k, err)
	}
	fenced("a Compact", n)
}

// TestQuerySearchTakesOneEntry: a search pipeline is one cache entry —
// its search runs uncached — and its hit is a single cache stage.
func TestQuerySearchTakesOneEntry(t *testing.T) {
	c, idx := queryTestCollection(t, 2, CacheOptions{MaxEntries: 32})
	p := &pipeline.Pipeline{Stages: []pipeline.Stage{{Search: &pipeline.Search{G: graphOf(idx, 5), K: 4}}}}
	for i := 0; i < 2; i++ {
		res, err := c.Query(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if st := mustStats(t, c); st.Entries != 1 || st.Hits != int64(i) {
			t.Fatalf("run %d: cache %+v, want one entry and %d hits", i, st, i)
		}
		if i == 1 && (len(res.Stats.Stages) != 1 || res.Stats.Stages[0].Stage != "cache") {
			t.Fatalf("hit stages %+v, want one cache stage", res.Stats.Stages)
		}
	}
}

// TestQueryCacheHitIsACopy: whatever a caller does to a returned result
// — the miss it stored or a hit — the next hit answers as the first run
// did.
func TestQueryCacheHitIsACopy(t *testing.T) {
	c, idx := queryTestCollection(t, 1, CacheOptions{MaxEntries: 32})
	q := graphOf(idx, 2)
	for _, p := range []*pipeline.Pipeline{
		{Stages: []pipeline.Stage{{Search: &pipeline.Search{G: q, K: 6}}}},
		{Stages: []pipeline.Stage{{Filter: &pipeline.Filter{MinVertices: 1}}, {Count: &pipeline.Count{}}}},
		{Stages: []pipeline.Stage{{Search: &pipeline.Search{G: q, K: 20}}, {GroupBy: &pipeline.GroupBy{Key: pipeline.KeyScoreBucket}}}},
	} {
		var want string
		for run := 0; run < 3; run++ {
			res, err := c.Query(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			got := answerJSON(t, res)
			if run == 0 {
				want = got
				if len(res.Rows) == 0 && res.Count == nil && len(res.Groups) == 0 {
					t.Fatalf("empty answer %s: the mutations below would be vacuous", got)
				}
			} else if got != want {
				t.Fatalf("run %d answered %s after the caller mutated an earlier result, want %s", run, got, want)
			}
			for i := range res.Rows {
				res.Rows[i].ID = -1
				if d := res.Rows[i].Distance; d != nil {
					*d = -1
				}
			}
			if res.Count != nil {
				*res.Count = -1
			}
			for i := range res.Groups {
				g := &res.Groups[i]
				g.Key, g.Count = "mutated", -1
				for _, d := range []*float64{g.MinDistance, g.MaxDistance, g.MeanDistance} {
					if d != nil {
						*d = -1
					}
				}
			}
			res.Rows = append(res.Rows, pipeline.ResultRow{ID: -2})
		}
		if st := mustStats(t, c); st.Hits == 0 {
			t.Fatalf("no hits: %+v", st)
		}
	}
}

// TestQueryCacheKeySpellings: a search stage's query keys by its graph
// — the wire spec, or Search.G, which wins over a spec beside it — so
// different graphs never share an entry, whichever way each is spelled.
func TestQueryCacheKeySpellings(t *testing.T) {
	c, idx := queryTestCollection(t, 2, CacheOptions{MaxEntries: 32})
	a, b := graphOf(idx, 1), graphOf(idx, 9)
	spec := func(g *Graph) *pipeline.GraphSpec {
		s := &pipeline.GraphSpec{}
		for v := 0; v < g.N(); v++ {
			s.Labels = append(s.Labels, int(g.VertexLabel(v)))
		}
		for _, e := range g.Edges() {
			s.Edges = append(s.Edges, [3]int{e.U, e.V, int(e.Label)})
		}
		return s
	}
	search := func(s *pipeline.Search) *pipeline.Pipeline {
		s.K = 8
		return &pipeline.Pipeline{Stages: []pipeline.Stage{{Search: s}}}
	}
	// Untagged, the last two would share key bytes: the binary codec
	// writes G's edge endpoints as uvarints, the spec's are varints, and
	// uvarint(2) is varint(1).
	path := NewGraph(0)
	for _, l := range []Label{0, 1, 2} {
		path.AddVertex(l)
	}
	if err := path.AddEdge(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	for i, p := range []*pipeline.Pipeline{
		search(&pipeline.Search{G: a}),
		search(&pipeline.Search{Query: spec(b)}),
		search(&pipeline.Search{G: b}),
		search(&pipeline.Search{Query: spec(a)}),
		search(&pipeline.Search{G: path}),
		search(&pipeline.Search{Query: &pipeline.GraphSpec{Labels: []int{0, 1, 2}, Edges: [][3]int{{0, 1, 0}}}}),
	} {
		before := mustStats(t, c)
		res, err := c.Query(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if st := mustStats(t, c); st.Hits != before.Hits {
			t.Fatalf("spelling %d hit another graph's entry: %+v", i, st)
		}
		if got, want := answerJSON(t, res), answerJSON(t, uncachedQuery(t, c, p)); got != want {
			t.Fatalf("spelling %d answered %s, want %s", i, got, want)
		}
	}
	// The same graph spelled the same way does share an entry, and G
	// beside a spec is G: a's entry answers.
	for i, p := range []*pipeline.Pipeline{
		search(&pipeline.Search{Query: spec(b)}),
		search(&pipeline.Search{G: a, Query: spec(b)}),
	} {
		res, err := c.Query(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if st := mustStats(t, c); st.Hits != int64(i+1) {
			t.Fatalf("repeat %d missed: %+v", i, st)
		}
		if got, want := answerJSON(t, res), answerJSON(t, uncachedQuery(t, c, p)); got != want {
			t.Fatalf("repeat %d answered %s, want %s", i, got, want)
		}
	}
}

// TestQueryCacheStoresNoErrors: a pipeline that fails — a bad query
// graph, a cancelled scan — leaves nothing in the cache, so its repeat
// fails again and a later healthy run answers afresh.
func TestQueryCacheStoresNoErrors(t *testing.T) {
	c, idx := queryTestCollection(t, 2, CacheOptions{MaxEntries: 32})
	bad := &pipeline.Pipeline{Stages: []pipeline.Stage{
		{Search: &pipeline.Search{Query: &pipeline.GraphSpec{Labels: []int{1}, Edges: [][3]int{{0, 5, 0}}}, K: 3}},
	}}
	for i := 0; i < 2; i++ {
		var se *pipeline.StageError
		if _, err := c.Query(context.Background(), bad); !errors.As(err, &se) || se.Name != "search" {
			t.Fatalf("run %d: error %v, want the search stage's", i, err)
		}
	}
	count := &pipeline.Pipeline{Stages: []pipeline.Stage{{Filter: &pipeline.Filter{MinVertices: 1}}, {Count: &pipeline.Count{}}}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(cancelled, count); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled count: error %v, want context.Canceled", err)
	}
	if st := mustStats(t, c); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("failed runs reached the cache: %+v", st)
	}
	res, err := c.Query(context.Background(), count)
	if err != nil {
		t.Fatal(err)
	}
	if *res.Count != int64(idx.snap.Load().live()) {
		t.Fatalf("count %d after a cancelled run, want %d", *res.Count, idx.snap.Load().live())
	}
}
