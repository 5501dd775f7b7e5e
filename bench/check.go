package main

import (
	"fmt"
	"sort"
	"strconv"

	"repro/graphdim"
	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pipeline"
	"repro/internal/vecspace"
)

// The correctness checks. Each workload's answers are compared with an
// oracle the harness computes on its own from the generated inputs; every
// comparison counts as one attempted operation and every mismatch as one
// failed. The oracles take the program's answer as an argument, so the
// tests can feed them a deliberately wrong one.

// oracle is the harness's own view of the corpus: every graph mapped onto
// the index's dimensions with a Mapper built from public constructors.
type oracle struct {
	mapper *vecspace.Mapper
	graphs []*graph.Graph        // by global id
	vecs   []*vecspace.BitVector // by global id
}

func newOracle(dims []*graph.Graph, graphs []*graph.Graph) *oracle {
	m := vecspace.NewMapper(dims)
	return &oracle{mapper: m, graphs: graphs, vecs: m.MapAllWorkers(graphs, 0)}
}

// bruteTopK ranks every admitted id by BitVector.Distance with a full
// sort, ties by ascending id — no block, no heap, no postings.
func (o *oracle) bruteTopK(q *graph.Graph, k int, admit func(id int) bool) []graphdim.Result {
	qv := o.mapper.Map(q)
	all := make([]graphdim.Result, 0, len(o.vecs))
	for id, v := range o.vecs {
		if admit == nil || admit(id) {
			all = append(all, graphdim.Result{ID: id, Distance: qv.Distance(v)})
		}
	}
	sortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sortResults(rs []graphdim.Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Distance != rs[j].Distance {
			return rs[i].Distance < rs[j].Distance
		}
		return rs[i].ID < rs[j].ID
	})
}

// checkTopK demands the same ids and bit-identical distances in the same
// order.
func checkTopK(got, want []graphdim.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: got id %d at %v, oracle has id %d at %v",
				i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
	return nil
}

// checkRanked is the invariant every search result must hold whatever the
// engine: at most k answers, ascending by (distance, id), no id twice.
func checkRanked(rs []graphdim.Result, k int) error {
	if len(rs) > k {
		return fmt.Errorf("%d results for k=%d", len(rs), k)
	}
	seen := make(map[int]bool, len(rs))
	for i, r := range rs {
		if seen[r.ID] {
			return fmt.Errorf("id %d returned twice", r.ID)
		}
		seen[r.ID] = true
		if i > 0 {
			p := rs[i-1]
			if p.Distance > r.Distance || (p.Distance == r.Distance && p.ID > r.ID) {
				return fmt.Errorf("rank %d (id %d at %v) sorts before rank %d (id %d at %v)",
					i, r.ID, r.Distance, i-1, p.ID, p.Distance)
			}
		}
	}
	return nil
}

// checkVerified re-derives every returned distance of a verified search:
// it must equal the budgeted MCS dissimilarity of the query and the
// returned graph.
func checkVerified(rs []graphdim.Result, q *graph.Graph, graphOf func(id int) *graph.Graph, k int) error {
	if err := checkRanked(rs, k); err != nil {
		return err
	}
	for _, r := range rs {
		g := graphOf(r.ID)
		if g == nil {
			return fmt.Errorf("id %d is not in the collection", r.ID)
		}
		want := mcs.Delta2.DissimilarityBudget(q, g, mcs.Options{MaxNodes: mcsBudget})
		if r.Distance != want {
			return fmt.Errorf("id %d: distance %v, MCS dissimilarity is %v", r.ID, r.Distance, want)
		}
	}
	return nil
}

// checkLive is the per-result invariant of the mixed workload: ranked,
// every id already assigned, and none that a Remove acknowledged before
// the search began.
func checkLive(rs []graphdim.Result, k, nextID int, removedBefore func(id int) bool) error {
	if err := checkRanked(rs, k); err != nil {
		return err
	}
	for _, r := range rs {
		if r.ID < 0 || r.ID >= nextID {
			return fmt.Errorf("id %d outside [0, %d)", r.ID, nextID)
		}
		if removedBefore(r.ID) {
			return fmt.Errorf("id %d was removed before the search began", r.ID)
		}
	}
	return nil
}

// matchFilter evaluates the predicates the generated pipelines use as a
// plain Go predicate over the graph.
func matchFilter(f *pipeline.Filter, g *graph.Graph) bool {
	if g.N() < f.MinVertices || g.M() < f.MinEdges {
		return false
	}
	for _, lc := range f.VertexLabels {
		n := 0
		for v := 0; v < g.N(); v++ {
			if g.VertexLabel(v) == graph.Label(lc.Label) {
				n++
			}
		}
		if n < max(lc.MinCount, 1) {
			return false
		}
	}
	for _, lc := range f.EdgeLabels {
		n := 0
		for _, e := range g.Edges() {
			if e.Label == graph.Label(lc.Label) {
				n++
			}
		}
		if n < max(lc.MinCount, 1) {
			return false
		}
	}
	return true
}

// checkDoc answers a pipeline document the slow way and compares.
func (o *oracle) checkDoc(doc []byte, got *pipeline.Result) error {
	p, err := pipeline.Parse(doc)
	if err != nil {
		return err
	}
	pl, err := p.Plan()
	if err != nil {
		return err
	}
	want, err := o.pipelineAnswer(pl)
	if err != nil {
		return err
	}
	return checkPipeline(got, want)
}

// pipelineAnswer evaluates a parsed pipeline the slow way: the filter as a
// predicate over every graph, then the oracle's own ranking, count or
// group-by.
func (o *oracle) pipelineAnswer(pl *pipeline.Plan) (*pipeline.Result, error) {
	admit := func(id int) bool {
		for _, f := range pl.Filters {
			if !matchFilter(f, o.graphs[id]) {
				return false
			}
		}
		return true
	}
	res := &pipeline.Result{}
	switch {
	case pl.Search != nil:
		q, err := pl.Search.QueryGraph()
		if err != nil {
			return nil, err
		}
		for _, r := range o.bruteTopK(q, pl.Search.K, admit) {
			d := r.Distance
			res.Rows = append(res.Rows, pipeline.ResultRow{ID: r.ID, Distance: &d})
		}
	case pl.Count != nil:
		var n int64
		for id := range o.graphs {
			if admit(id) {
				n++
			}
		}
		res.Count = &n
	case pl.GroupBy != nil && pl.GroupBy.Key == pipeline.KeyEdgeLabel:
		counts := map[graph.Label]int64{}
		for id, g := range o.graphs {
			if !admit(id) {
				continue
			}
			_, eh := g.LabelHistogram()
			for lab := range eh {
				counts[lab]++
			}
		}
		for lab, n := range counts {
			res.Groups = append(res.Groups, pipeline.Group{Key: strconv.Itoa(int(lab)), Count: n})
		}
	default:
		return nil, fmt.Errorf("the oracle does not evaluate this pipeline shape")
	}
	return res, nil
}

// checkPipeline compares rows (ids and distances, in order), the count,
// and the groups (as a key → count map; their order is presentation).
func checkPipeline(got, want *pipeline.Result) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("got %d rows, oracle has %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if g.ID != w.ID || (g.Distance == nil) != (w.Distance == nil) || (g.Distance != nil && *g.Distance != *w.Distance) {
			return fmt.Errorf("row %d: got id %d, oracle has id %d (or their distances differ)", i, g.ID, w.ID)
		}
	}
	if (got.Count == nil) != (want.Count == nil) || (got.Count != nil && *got.Count != *want.Count) {
		return fmt.Errorf("count differs from the oracle's")
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("got %d groups, oracle has %d", len(got.Groups), len(want.Groups))
	}
	wantCount := make(map[string]int64, len(want.Groups))
	for _, g := range want.Groups {
		wantCount[g.Key] = g.Count
	}
	for _, g := range got.Groups {
		if c, ok := wantCount[g.Key]; !ok || c != g.Count {
			return fmt.Errorf("group %q: got %d, oracle has %d", g.Key, g.Count, c)
		}
	}
	return nil
}

// checkRecovered compares the live ids of a reopened store with the ids
// the harness knows were acknowledged and not removed.
func checkRecovered(live []int, acked int, removed map[int]bool) error {
	if want := acked - len(removed); len(live) != want {
		return fmt.Errorf("%d live graphs after recovery, %d were acknowledged and not removed", len(live), want)
	}
	for i, id := range live {
		if id < 0 || id >= acked {
			return fmt.Errorf("live id %d was never acknowledged (ids end at %d)", id, acked)
		}
		if removed[id] {
			return fmt.Errorf("id %d is live after recovery but its Remove was acknowledged", id)
		}
		if i > 0 && live[i-1] >= id {
			return fmt.Errorf("live ids not strictly ascending at %d", id)
		}
	}
	return nil
}

// overlapAt10 is the paper's precision measure: the share of the exact
// top-k the engine's top-k also holds.
func overlapAt10(engine, exact []graphdim.Result) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int]bool, len(exact))
	for _, r := range exact {
		in[r.ID] = true
	}
	hit := 0
	for _, r := range engine {
		if in[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}
