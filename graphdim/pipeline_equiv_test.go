package graphdim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/vecspace"
)

// The pipeline equivalence properties the ISSUE pins, on the same
// randomized databases (and the same GRAPHDIM_EQUIV_SEED replay knob)
// as the engine-equivalence suite:
//
//  1. a pipeline containing only a similarity stage is bit-identical
//     to plain Collection.Search;
//  2. filter pushdown equals post-hoc filtering of an unfiltered
//     search, and equals the same filter expressed as an opaque
//     Predicate closure;
//  3. per-shard partial aggregates merge to the single-shard answer.

// filterHolds is the semantic oracle for a Filter, evaluated directly
// on the graph and its mapped vector — independently of the posting
// pushdown machinery under test.
func filterHolds(f *pipeline.Filter, g *Graph, vec *vecspace.BitVector) bool {
	if g.N() < f.MinVertices || (f.MaxVertices > 0 && g.N() > f.MaxVertices) {
		return false
	}
	if g.M() < f.MinEdges || (f.MaxEdges > 0 && g.M() > f.MaxEdges) {
		return false
	}
	vh, eh := g.LabelHistogram()
	for _, lc := range f.VertexLabels {
		if vh[Label(lc.Label)] < max(1, lc.MinCount) {
			return false
		}
	}
	for _, lc := range f.EdgeLabels {
		if eh[Label(lc.Label)] < max(1, lc.MinCount) {
			return false
		}
	}
	for _, d := range f.DimsAll {
		if !vec.Get(d) {
			return false
		}
	}
	if len(f.DimsAny) > 0 {
		any := false
		for _, d := range f.DimsAny {
			if vec.Get(d) {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	ones := vec.Ones()
	if ones < f.MinOnes || (f.MaxOnes > 0 && ones > f.MaxOnes) {
		return false
	}
	return true
}

// randomFilter draws a filter that is satisfiable on the database
// (constraints sampled from a random member graph) so filtered result
// sets are usually non-empty.
func randomFilter(rng *rand.Rand, idx *Index, vecs []*vecspace.BitVector) *pipeline.Filter {
	g := idx.Graph(rng.Intn(idx.TotalGraphs()))
	f := &pipeline.Filter{}
	switch rng.Intn(5) {
	case 0:
		f.VertexLabels = []pipeline.LabelCount{{Label: int(g.VertexLabel(rng.Intn(g.N())))}}
		if rng.Intn(2) == 0 {
			f.VertexLabels[0].MinCount = 1 + rng.Intn(2)
		}
	case 1:
		if es := g.Edges(); len(es) > 0 {
			f.EdgeLabels = []pipeline.LabelCount{{Label: int(es[rng.Intn(len(es))].Label), MinCount: rng.Intn(3)}}
		} else {
			f.MaxEdges = 0
			f.MinEdges = 0
			f.MinVertices = 1
		}
	case 2:
		f.MinVertices = 1 + rng.Intn(g.N())
		if rng.Intn(2) == 0 {
			f.MaxVertices = f.MinVertices + rng.Intn(8)
		}
	case 3:
		p := len(idx.Dimensions())
		v := vecs[rng.Intn(len(vecs))]
		var set []int
		for d := 0; d < p; d++ {
			if v.Get(d) {
				set = append(set, d)
			}
		}
		if len(set) == 0 {
			f.MinVertices = 1
			break
		}
		d := set[rng.Intn(len(set))]
		if rng.Intn(2) == 0 {
			f.DimsAll = []int{d}
		} else {
			f.DimsAny = []int{d, rng.Intn(p)}
		}
	case 4:
		ones := vecs[rng.Intn(len(vecs))].Ones()
		f.MinOnes = ones / 2
		if rng.Intn(2) == 0 {
			f.MaxOnes = ones + rng.Intn(3)
			if f.MaxOnes < f.MinOnes {
				f.MaxOnes = f.MinOnes
			}
		}
	}
	return f
}

func mapAll(idx *Index) []*vecspace.BitVector {
	m := vecspace.NewMapper(idx.Dimensions())
	vecs := make([]*vecspace.BitVector, idx.TotalGraphs())
	for i := range vecs {
		vecs[i] = m.Map(idx.Graph(i))
	}
	return vecs
}

// TestPipelineSearchEquivalence: property 1 — a similarity-only
// pipeline returns exactly Collection.Search's ranking, ids and
// bitwise-equal distances, across engines and shard counts.
func TestPipelineSearchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	ctx := context.Background()
	idx, db := equivBuild(t, rng, 2+rng.Intn(150))

	s := NewStore(StoreOptions{})
	defer s.Close()
	colls := make([]*Collection, 0, 2)
	for _, shards := range []int{1, 1 + rng.Intn(4)} {
		c, err := s.CreateFromIndex("pse-"+strconv.Itoa(len(colls)), idx, CollectionOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		colls = append(colls, c)
	}

	queries := []*Graph{db[rng.Intn(len(db))]}
	queries = append(queries, dataset.Synthetic(dataset.SynthConfig{N: 2, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)
	for qi, q := range queries {
		k := 1 + rng.Intn(idx.TotalGraphs()+3)
		for _, eng := range []Engine{EngineMapped, EngineVerified} {
			opt := SearchOptions{K: k, Engine: eng, VerifyFactor: 2}
			stage := pipeline.Stage{Search: &pipeline.Search{G: q, K: k, Engine: eng.String(), VerifyFactor: 2}}
			for _, c := range colls {
				want, err := c.Search(ctx, q, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Query(ctx, &pipeline.Pipeline{Stages: []pipeline.Stage{stage}})
				if err != nil {
					t.Fatalf("query %d %s: %v", qi, eng, err)
				}
				if len(got.Rows) != len(want.Results) {
					t.Fatalf("query %d %s shards=%d: %d rows vs %d results", qi, eng, c.Shards(), len(got.Rows), len(want.Results))
				}
				for i, r := range got.Rows {
					if r.ID != want.Results[i].ID || r.Distance == nil || *r.Distance != want.Results[i].Distance {
						t.Fatalf("query %d %s shards=%d row %d: pipeline %v vs search %+v",
							qi, eng, c.Shards(), i, r, want.Results[i])
					}
				}
				if got.Stats.Engine != eng.String() || got.Stats.Matched != int64(len(want.Results)) {
					t.Fatalf("stats %+v do not echo the search (engine %s, %d results)", got.Stats, eng, len(want.Results))
				}
			}
		}
	}
}

// TestFilterPushdownEquivalence: property 2 — at the Index layer, a
// declarative filter (posting pushdown), the same constraint as an
// opaque Predicate closure (scan-time evaluation), and post-hoc
// filtering of the unfiltered flat ranking all agree bit-for-bit.
func TestFilterPushdownEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	ctx := context.Background()
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		idx, _ := equivBuild(t, rng, 2+rng.Intn(120))
		// Mutate so pushdown runs against appended postings and dead ids.
		if _, err := idx.Add(dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: rng.Int63()})...); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2 && idx.Size() > 2; i++ {
			if id := rng.Intn(idx.TotalGraphs()); !idx.IsRemoved(id) {
				if err := idx.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		vecs := mapAll(idx)
		queries := []*Graph{idx.Graph(rng.Intn(idx.TotalGraphs()))}
		queries = append(queries, dataset.Synthetic(dataset.SynthConfig{N: 1, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)

		for trial := 0; trial < 6; trial++ {
			fs := []*pipeline.Filter{randomFilter(rng, idx, vecs)}
			if rng.Intn(3) == 0 { // filters AND together
				fs = append(fs, randomFilter(rng, idx, vecs))
			}
			holds := func(id int) bool {
				for _, f := range fs {
					if !filterHolds(f, idx.Graph(id), vecs[id]) {
						return false
					}
				}
				return true
			}
			pred := func(id int, _ *Graph) bool { return holds(id) }
			q := queries[rng.Intn(len(queries))]
			k := 1 + rng.Intn(idx.TotalGraphs())
			label := "round " + strconv.Itoa(round) + " trial " + strconv.Itoa(trial)

			for _, eng := range []Engine{EngineMapped, EngineVerified} {
				base := SearchOptions{K: k, Engine: eng, VerifyFactor: 2}
				fOpt := base
				fOpt.Filters = fs
				pOpt := base
				pOpt.Predicate = pred
				filtered, err := idx.Search(ctx, q, fOpt)
				if err != nil {
					t.Fatalf("%s %s filtered: %v", label, eng, err)
				}
				closured, err := idx.Search(ctx, q, pOpt)
				if err != nil {
					t.Fatalf("%s %s predicate: %v", label, eng, err)
				}
				if !reflect.DeepEqual(filtered.Results, closured.Results) {
					t.Fatalf("%s %s: pushdown diverges from predicate closure:\npushdown:  %v\npredicate: %v\nfilter %+v",
						label, eng, filtered.Results, closured.Results, fs[0])
				}
			}

			// Post-hoc oracle on the mapped engine: the unfiltered flat
			// ranking over everything, filtered after the fact, truncated
			// to K, must equal the pushdown ranking. Also run the filtered
			// search with NoPrune, which exercises the membership-bitmap
			// fallback instead of the restricted plan.
			full, err := idx.Search(ctx, q, SearchOptions{K: idx.TotalGraphs(), NoPrune: true})
			if err != nil {
				t.Fatal(err)
			}
			var posthoc []Result
			for _, r := range full.Results {
				if holds(r.ID) {
					posthoc = append(posthoc, r)
				}
			}
			if len(posthoc) > k {
				posthoc = posthoc[:k]
			}
			for _, noPrune := range []bool{false, true} {
				got, err := idx.Search(ctx, q, SearchOptions{K: k, Filters: fs, NoPrune: noPrune})
				if err != nil {
					t.Fatalf("%s noprune=%v: %v", label, noPrune, err)
				}
				if !reflect.DeepEqual(got.Results, posthoc) && !(len(got.Results) == 0 && len(posthoc) == 0) {
					t.Fatalf("%s noprune=%v: pushdown diverges from post-hoc filtering:\npushdown: %v\nposthoc:  %v\nfilter %+v",
						label, noPrune, got.Results, posthoc, fs[0])
				}
			}
		}
	}
}

// TestPipelineShardMergeEquivalence: property 3 — every pipeline shape
// produces the same Result (modulo Stats timings) on a 1-shard and a
// multi-shard collection over the same graphs, i.e. per-shard partial
// aggregates merge to the single-shard answer.
func TestPipelineShardMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	ctx := context.Background()
	idx, db := equivBuild(t, rng, 20+rng.Intn(150))

	s := NewStore(StoreOptions{})
	defer s.Close()
	one, err := s.CreateFromIndex("merge-one", idx, CollectionOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := s.CreateFromIndex("merge-many", idx, CollectionOptions{Shards: 2 + rng.Intn(4)})
	if err != nil {
		t.Fatal(err)
	}

	vecs := mapAll(idx)
	q := db[rng.Intn(len(db))]
	filter := pipeline.Stage{Filter: randomFilter(rng, idx, vecs)}
	search := pipeline.Stage{Search: &pipeline.Search{G: q, K: 1 + rng.Intn(idx.TotalGraphs())}}
	pipelines := []*pipeline.Pipeline{
		{Stages: []pipeline.Stage{filter, {Count: &pipeline.Count{}}}},
		{Stages: []pipeline.Stage{filter}},
		{Stages: []pipeline.Stage{filter, {Limit: &pipeline.Limit{N: 1 + rng.Intn(9)}}}},
		{Stages: []pipeline.Stage{filter, {GroupBy: &pipeline.GroupBy{Key: pipeline.KeyVertexLabel}}}},
		{Stages: []pipeline.Stage{filter, {GroupBy: &pipeline.GroupBy{Key: pipeline.KeyEdgeLabel, Top: 3}}}},
		{Stages: []pipeline.Stage{search, {GroupBy: &pipeline.GroupBy{Key: pipeline.KeyScoreBucket}}}},
		{Stages: []pipeline.Stage{filter, search, {TopK: &pipeline.TopK{K: 3}}}},
	}
	for pi, p := range pipelines {
		want, err := one.Query(ctx, p)
		if err != nil {
			t.Fatalf("pipeline %d on 1 shard: %v", pi, err)
		}
		got, err := many.Query(ctx, p)
		if err != nil {
			t.Fatalf("pipeline %d on %d shards: %v", pi, many.Shards(), err)
		}
		want.Stats, got.Stats = pipeline.Stats{}, pipeline.Stats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pipeline %d: %d-shard answer diverges from 1-shard:\nmany: %+v\none:  %+v",
				pi, many.Shards(), got, want)
		}
	}
}

// TestPipelineDimensionFilterThroughCompaction: Collection.Query
// range-checks and pushes down dimension predicates against shard 0's
// dimensions, which is right only because every shard holds the same set
// for life. A sharded collection that removes, compacts and adds again
// must keep answering dimension-filter pipelines exactly like a
// single-shard collection that never compacted.
func TestPipelineDimensionFilterThroughCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	ctx := context.Background()
	idx, db := equivBuild(t, rng, 40+rng.Intn(80))
	p := len(idx.Dimensions())

	s := NewStore(StoreOptions{})
	defer s.Close()
	one, err := s.CreateFromIndex("dim-one", idx, CollectionOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := s.CreateFromIndex("dim-many", idx, CollectionOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	// The last dimension is the one an off-by-one in a diverged shard's
	// range check would lose first.
	all := pipeline.Stage{Filter: &pipeline.Filter{DimsAll: []int{p - 1}}}
	any := pipeline.Stage{Filter: &pipeline.Filter{DimsAny: []int{rng.Intn(p), rng.Intn(p)}, MinOnes: 1}}
	search := pipeline.Stage{Search: &pipeline.Search{G: db[rng.Intn(len(db))], K: 12}}
	pipelines := []*pipeline.Pipeline{
		{Stages: []pipeline.Stage{all, {Count: &pipeline.Count{}}}},
		{Stages: []pipeline.Stage{any}},
		{Stages: []pipeline.Stage{any, {GroupBy: &pipeline.GroupBy{Key: pipeline.KeyVertexLabel}}}},
		{Stages: []pipeline.Stage{any, search}},
		{Stages: []pipeline.Stage{all, any, search, {TopK: &pipeline.TopK{K: 4}}}},
	}
	outOfRange := &pipeline.Pipeline{Stages: []pipeline.Stage{{Filter: &pipeline.Filter{DimsAll: []int{p}}}}}
	check := func(label string) {
		t.Helper()
		for pi, pl := range pipelines {
			want, err := one.Query(ctx, pl)
			if err != nil {
				t.Fatalf("%s: pipeline %d on 1 shard: %v", label, pi, err)
			}
			got, err := many.Query(ctx, pl)
			if err != nil {
				t.Fatalf("%s: pipeline %d on 3 shards: %v", label, pi, err)
			}
			want.Stats, got.Stats = pipeline.Stats{}, pipeline.Stats{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: pipeline %d: sharded answer diverges from single-shard:\nmany: %+v\none:  %+v", label, pi, got, want)
			}
		}
		for _, c := range []*Collection{one, many} {
			var se *pipeline.StageError
			if _, err := c.Query(ctx, outOfRange); !errors.As(err, &se) {
				t.Fatalf("%s: dimension %d of %d on %s: err = %v, want a StageError", label, p, p, c.Name(), err)
			}
		}
	}
	both := func(f func(*Collection) error) {
		t.Helper()
		for _, c := range []*Collection{one, many} {
			if err := f(c); err != nil {
				t.Fatal(err)
			}
		}
	}

	check("as built")
	removed := rng.Perm(len(db))[:len(db)/4]
	both(func(c *Collection) error { return c.Remove(removed...) })
	check("after Remove")
	if n, err := many.Compact(ctx); err != nil || n == 0 {
		t.Fatalf("Compact = (%d, %v), want the shards holding tombstones", n, err)
	}
	check("after Compact")
	added := dataset.Synthetic(dataset.SynthConfig{N: 15, AvgEdges: 9, Labels: 5, Seed: rng.Int63()})
	both(func(c *Collection) error { _, err := c.Add(ctx, added...); return err })
	check("Add after Compact")
}

// TestFilterMatchingNothingOnAShard: a pushed-down filter whose posting
// intersection is empty on some shard restricts that shard to nothing —
// it must not fall back to ranking the shard unfiltered. The rarest
// dimension over more shards than it has graphs guarantees such a shard.
func TestFilterMatchingNothingOnAShard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	idx, db := equivBuild(t, rng, 40)
	vecs := mapAll(idx)
	rare, count := -1, len(db)+1
	for d := range idx.Dimensions() {
		n := 0
		for _, v := range vecs {
			if v.Get(d) {
				n++
			}
		}
		if n > 0 && n < count {
			rare, count = d, n
		}
	}
	shards := count + 2
	s := NewStore(StoreOptions{})
	defer s.Close()
	many, err := s.CreateFromIndex("rare", idx, CollectionOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	opt := SearchOptions{K: len(db), Filters: []*pipeline.Filter{{DimsAll: []int{rare}}}}
	for _, noPrune := range []bool{false, true} {
		opt.NoPrune = noPrune
		want, err := idx.Search(ctx, db[0], opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := many.Search(ctx, db[0], opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Results) != count {
			t.Fatalf("noprune=%v: the index returns %d graphs for a dimension %d graphs hold", noPrune, len(want.Results), count)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("noprune=%v: %d shards (dimension %d is set in %d graphs) diverge from the index:\nsharded: %v\nindex:   %v",
				noPrune, shards, rare, count, got.Results, want.Results)
		}
	}
}
