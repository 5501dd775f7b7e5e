package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/posting"
	"repro/internal/vecspace"
)

// chain builds a path graph over the given vertex labels with edge
// label e between consecutive vertices.
func chain(e int, labels ...int) *graph.Graph {
	g := graph.New(0)
	for _, l := range labels {
		g.AddVertex(graph.Label(l))
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(i-1, i, graph.Label(e))
	}
	return g
}

func TestParseStages(t *testing.T) {
	body := `{"stages":[
		{"filter":{"min_vertices":2,"vertex_labels":[{"label":7,"min_count":2}]}},
		{"search":{"query":{"labels":[1,2],"edges":[[0,1,0]]},"k":5,"engine":"verified"}},
		{"topk":{"k":3}},
		{"group_by":{"key":"score_bucket","bucket_width":0.1}}
	]}`
	p, err := Parse([]byte(body))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pl, err := p.Plan()
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(pl.Filters) != 1 || pl.Search == nil || pl.TopK == nil || pl.GroupBy == nil {
		t.Fatalf("plan missing stages: %+v", pl)
	}
	if pl.Search.K != 5 || pl.Search.Engine != "verified" {
		t.Fatalf("search stage mis-decoded: %+v", pl.Search)
	}
	q, err := pl.Search.QueryGraph()
	if err != nil {
		t.Fatalf("QueryGraph: %v", err)
	}
	if q.N() != 2 || q.M() != 1 {
		t.Fatalf("query graph %d vertices %d edges", q.N(), q.M())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name      string
		body      string
		wantIndex int    // -1 = not a StageError
		wantName  string // substring of StageError.Name
		wantMsg   string // substring of the error text
	}{
		{"bad json", `{"stages":[`, -1, "", "pipeline"},
		{"no stages", `{"stages":[]}`, -1, "", "no stages"},
		{"unknown top field", `{"stage":[]}`, -1, "", "unknown field"},
		{"unknown stage type", `{"stages":[{"filter":{}},{"frobnicate":{}}]}`, 1, "frobnicate", "unknown stage type"},
		{"two keys", `{"stages":[{"filter":{},"count":{}}]}`, 0, "", "exactly one"},
		{"zero keys", `{"stages":[{}]}`, 0, "", "exactly one"},
		{"unknown stage field", `{"stages":[{"search":{"k":1,"knob":true}}]}`, 0, "search", "unknown field"},
		{"not an object", `{"stages":["filter"]}`, 0, "", "not a JSON object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.body))
			if err == nil {
				t.Fatal("Parse accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
			var se *StageError
			if tc.wantIndex >= 0 {
				if !errors.As(err, &se) {
					t.Fatalf("want StageError, got %T: %v", err, err)
				}
				if se.Index != tc.wantIndex || !strings.Contains(se.Name, tc.wantName) {
					t.Fatalf("StageError{%d, %q}, want index %d name ~%q", se.Index, se.Name, tc.wantIndex, tc.wantName)
				}
			} else if errors.As(err, &se) {
				t.Fatalf("unexpected StageError: %v", err)
			}
		})
	}
}

func TestPlanOrderingErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"filter after search", `{"stages":[{"search":{"query":{"labels":[1]},"k":1}},{"filter":{}}]}`, "out of order"},
		{"two searches", `{"stages":[{"search":{"query":{"labels":[1]},"k":1}},{"search":{"query":{"labels":[1]},"k":1}}]}`, "out of order"},
		{"topk without search", `{"stages":[{"filter":{}},{"topk":{"k":3}}]}`, "needs a preceding search"},
		{"engine group without search", `{"stages":[{"group_by":{"key":"engine"}}]}`, "needs a preceding search"},
		{"bad group key", `{"stages":[{"group_by":{"key":"color"}}]}`, "unknown group_by key"},
		{"zero k", `{"stages":[{"search":{"query":{"labels":[1]},"k":0}}]}`, "k must be positive"},
		{"bad engine", `{"stages":[{"search":{"query":{"labels":[1]},"k":1,"engine":"warp"}}]}`, "unknown engine"},
		{"bad metric", `{"stages":[{"search":{"query":{"labels":[1]},"k":1,"metric":"cosine"}}]}`, "unknown metric"},
		{"no query graph", `{"stages":[{"search":{"k":1}}]}`, "needs a query graph"},
		{"negative limit", `{"stages":[{"limit":{"n":0}}]}`, "n must be positive"},
		{"empty vertex range", `{"stages":[{"filter":{"min_vertices":5,"max_vertices":2}}]}`, "range is empty"},
		{"negative label", `{"stages":[{"filter":{"vertex_labels":[{"label":-1}]}}]}`, "non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Parse([]byte(tc.body))
			if err == nil {
				_, err = p.Plan()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestPlanScanDefaults(t *testing.T) {
	p, err := Parse([]byte(`{"stages":[{"filter":{"min_edges":1}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if pl.RowBound() != DefaultScanLimit {
		t.Fatalf("scan pipeline row bound %d, want DefaultScanLimit %d", pl.RowBound(), DefaultScanLimit)
	}
	if pl.NeedsGraphs() {
		t.Fatal("row-only scan should not need graphs")
	}
}

func TestCanonNormalization(t *testing.T) {
	// Same meaning, different spelling: labels unsorted with a duplicate
	// (max min_count wins), dims duplicated, min_count 0 == presence.
	a := &Filter{
		VertexLabels: []LabelCount{{Label: 9, MinCount: 2}, {Label: 3}, {Label: 9, MinCount: 1}},
		DimsAll:      []int{5, 1, 5},
		MinOnes:      2,
	}
	b := &Filter{
		VertexLabels: []LabelCount{{Label: 3, MinCount: 1}, {Label: 9, MinCount: 2}},
		DimsAll:      []int{1, 5},
		MinOnes:      2,
	}
	ca, cb := a.Canon(nil), b.Canon(nil)
	if !bytes.Equal(ca, cb) {
		t.Fatalf("equivalent filters encode differently:\n%x\n%x", ca, cb)
	}
	c := &Filter{VertexLabels: []LabelCount{{Label: 3}}, DimsAll: []int{1, 5}, MinOnes: 2}
	if bytes.Equal(ca, c.Canon(nil)) {
		t.Fatal("different filters share an encoding")
	}
	if bytes.Equal(CanonFilters(nil, nil), CanonFilters([]*Filter{{}}, nil)) {
		t.Fatal("no-filters and one-empty-filter share an encoding")
	}
	// Canonicalization must not mutate the receiver.
	if a.DimsAll[0] != 5 || a.VertexLabels[0].Label != 9 {
		t.Fatal("Canon mutated its receiver")
	}
}

// buildCatalog maps the graphs over nDims synthetic single-vertex
// dimension probes so dimension bits mean "contains vertex label d".
func buildCatalog(t *testing.T, gs []*graph.Graph, nDims int) Catalog {
	t.Helper()
	dims := make([]*graph.Graph, nDims)
	for d := 0; d < nDims; d++ {
		dims[d] = chain(0, d)
	}
	m := vecspace.NewMapper(dims)
	vecs := make([]*vecspace.BitVector, len(gs))
	for i, g := range gs {
		vecs[i] = m.Map(g)
	}
	return Catalog{
		N:      len(gs),
		Block:  vecspace.Pack(vecs, nDims),
		Labels: posting.LabelsFromGraphs(gs),
	}
}

func TestCompileFiltersPushdown(t *testing.T) {
	gs := []*graph.Graph{
		chain(1, 0, 1),       // labels {0,1}, edge label 1
		chain(1, 1, 1, 2),    // two 1s
		chain(2, 0, 2),       // edge label 2
		chain(1, 3),          // singleton
		chain(1, 1, 2, 2, 2), // three 2s
	}
	cat := buildCatalog(t, gs, 4)

	cases := []struct {
		name string
		f    Filter
		want []int32
	}{
		{"vertex presence", Filter{VertexLabels: []LabelCount{{Label: 1}}}, []int32{0, 1, 4}},
		{"vertex min count", Filter{VertexLabels: []LabelCount{{Label: 1, MinCount: 2}}}, []int32{1}},
		{"edge presence", Filter{EdgeLabels: []LabelCount{{Label: 2}}}, []int32{2}},
		{"edge min count", Filter{EdgeLabels: []LabelCount{{Label: 1, MinCount: 2}}}, []int32{1, 4}},
		{"dims all", Filter{DimsAll: []int{1, 2}}, []int32{1, 4}},
		{"dims any", Filter{DimsAny: []int{0, 3}}, []int32{0, 2, 3}},
		{"ones range", Filter{MinOnes: 2, MaxOnes: 2}, []int32{0, 1, 2, 4}},
		{"conjunction", Filter{VertexLabels: []LabelCount{{Label: 2}}, EdgeLabels: []LabelCount{{Label: 1}}}, []int32{1, 4}},
		{"empty", Filter{VertexLabels: []LabelCount{{Label: 99}}}, []int32{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comp, err := CompileFilters([]*Filter{&tc.f}, cat)
			if err != nil {
				t.Fatal(err)
			}
			if !comp.Restricted {
				t.Fatal("pushable filter did not restrict")
			}
			if comp.Residual != nil {
				t.Fatal("pushable filter left a residual")
			}
			got := comp.IDs
			if got == nil {
				got = []int32{}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("IDs %v, want %v", got, tc.want)
			}
			// The pushed result must agree with brute force per graph.
			for id, g := range gs {
				if comp.Matches(id, g) != contains(tc.want, int32(id)) {
					t.Fatalf("Matches(%d) disagrees with IDs", id)
				}
			}
		})
	}
}

func contains(ids []int32, id int32) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

func TestCompileFiltersResidual(t *testing.T) {
	gs := []*graph.Graph{chain(1, 0, 1), chain(1, 1, 1, 2), chain(2, 0, 2)}
	cat := buildCatalog(t, gs, 4)

	// Count ranges are residual-only.
	comp, err := CompileFilters([]*Filter{{MinVertices: 3}}, cat)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Restricted || comp.Residual == nil {
		t.Fatalf("count-range compile: %+v", comp)
	}
	for id, g := range gs {
		if comp.Matches(id, g) != (g.N() >= 3) {
			t.Fatalf("residual Matches(%d) wrong", id)
		}
	}

	// Without a label index, label predicates fall back to histogram
	// scans but mean the same thing.
	noLabels := Catalog{N: cat.N, Post: cat.Post}
	f := &Filter{VertexLabels: []LabelCount{{Label: 1, MinCount: 2}}, EdgeLabels: []LabelCount{{Label: 1}}}
	withIdx, err := CompileFilters([]*Filter{f}, cat)
	if err != nil {
		t.Fatal(err)
	}
	without, err := CompileFilters([]*Filter{f}, noLabels)
	if err != nil {
		t.Fatal(err)
	}
	if without.Restricted || without.Residual == nil {
		t.Fatal("label fallback should be residual-only")
	}
	for id, g := range gs {
		if withIdx.Matches(id, g) != without.Matches(id, g) {
			t.Fatalf("pushdown and fallback disagree on %d", id)
		}
	}

	// Dimension predicates out of range are an error.
	if _, err := CompileFilters([]*Filter{{DimsAll: []int{99}}}, cat); err == nil {
		t.Fatal("dims_all out of range accepted")
	}
	if _, err := CompileFilters([]*Filter{{MinOnes: 1}}, Catalog{N: 3}); err == nil {
		t.Fatal("ones range without posting index accepted")
	}
}

func TestAnalyzeFiltersAndCheckDims(t *testing.T) {
	fs := []*Filter{
		{DimsAll: []int{0, 1}, DimsAny: []int{2}, MinOnes: 1, VertexLabels: []LabelCount{{Label: 1}}, MinVertices: 2},
		{EdgeLabels: []LabelCount{{Label: 0}}},
	}
	pushed, fallback := AnalyzeFilters(fs)
	if pushed != 6 || fallback != 1 {
		t.Fatalf("AnalyzeFilters = %d, %d; want 6, 1", pushed, fallback)
	}
	if err := (&Filter{DimsAll: []int{4}}).CheckDims(4); err == nil {
		t.Fatal("CheckDims accepted out-of-range dim")
	}
	if err := (&Filter{DimsAny: []int{3}}).CheckDims(4); err != nil {
		t.Fatalf("CheckDims rejected in-range dim: %v", err)
	}
}

func planFor(t *testing.T, body string) *Plan {
	t.Helper()
	p, err := Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestAggregatorCount(t *testing.T) {
	pl := planFor(t, `{"stages":[{"count":{}}]}`)
	a := NewAggregator(pl)
	for i := 0; i < 7; i++ {
		a.Add(Row{ID: i})
	}
	res := a.Finish()
	if res.Count == nil || *res.Count != 7 {
		t.Fatalf("count %v, want 7", res.Count)
	}
}

func TestAggregatorTopKAndLimit(t *testing.T) {
	pl := planFor(t, `{"stages":[{"search":{"query":{"labels":[1]},"k":10}},{"topk":{"k":3}}]}`)
	a := NewAggregator(pl)
	dists := []float64{0.9, 0.1, 0.5, 0.3, 0.7}
	for i, d := range dists {
		a.Add(Row{ID: i, Distance: d, HasDistance: true})
	}
	res := a.Finish()
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Rows))
	}
	wantIDs := []int{1, 3, 2} // distances 0.1, 0.3, 0.5
	for i, r := range res.Rows {
		if r.ID != wantIDs[i] {
			t.Fatalf("row %d = id %d, want %d", i, r.ID, wantIDs[i])
		}
	}

	// Scan rows order by id under a limit.
	pl = planFor(t, `{"stages":[{"filter":{}},{"limit":{"n":2}}]}`)
	a = NewAggregator(pl)
	for _, id := range []int{5, 1, 9, 3} {
		a.Add(Row{ID: id})
	}
	res = a.Finish()
	if len(res.Rows) != 2 || res.Rows[0].ID != 1 || res.Rows[1].ID != 3 {
		t.Fatalf("limited scan rows %+v, want ids 1, 3", res.Rows)
	}
	if res.Rows[0].Distance != nil {
		t.Fatal("scan rows must not carry a distance")
	}
}

func TestAggregatorGroupBy(t *testing.T) {
	pl := planFor(t, `{"stages":[{"group_by":{"key":"vertex_label"}}]}`)
	a := NewAggregator(pl)
	a.Add(Row{ID: 0, G: chain(0, 1, 1, 2)})
	a.Add(Row{ID: 1, G: chain(0, 2, 10)})
	res := a.Finish()
	// Distinct labels per graph: {1,2} and {2,10} → 2:2, 1:1, 10:1.
	if len(res.Groups) != 3 {
		t.Fatalf("%d groups, want 3", len(res.Groups))
	}
	if res.Groups[0].Key != "2" || res.Groups[0].Count != 2 {
		t.Fatalf("top group %+v, want key 2 count 2", res.Groups[0])
	}
	// Numeric sort: label 1 before label 10 at equal count.
	if res.Groups[1].Key != "1" || res.Groups[2].Key != "10" {
		t.Fatalf("tie order %q, %q; want 1, 10", res.Groups[1].Key, res.Groups[2].Key)
	}

	pl = planFor(t, `{"stages":[{"search":{"query":{"labels":[1]},"k":4}},{"group_by":{"key":"score_bucket","bucket_width":0.5}}]}`)
	a = NewAggregator(pl)
	for i, d := range []float64{0.1, 0.4, 0.6, 1.2} {
		a.Add(Row{ID: i, Distance: d, HasDistance: true, Engine: "mapped"})
	}
	res = a.Finish()
	if len(res.Groups) != 3 || res.Groups[0].Count != 2 {
		t.Fatalf("score buckets %+v", res.Groups)
	}
	g0 := res.Groups[0]
	if g0.MinDistance == nil || *g0.MinDistance != 0.1 || *g0.MaxDistance != 0.4 || *g0.MeanDistance != 0.25 {
		t.Fatalf("bucket spread %+v", g0)
	}
}

// TestMergeEquivalence is the partial-aggregate law the shard fan-out
// rests on: folding rows through K partial aggregators and merging
// gives exactly the single-aggregator answer, for every aggregate
// shape, under a randomized row stream.
func TestMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plans := []string{
		`{"stages":[{"count":{}}]}`,
		`{"stages":[{"filter":{}},{"limit":{"n":5}}]}`,
		`{"stages":[{"filter":{}}]}`,
		`{"stages":[{"group_by":{"key":"vertex_label"}}]}`,
		`{"stages":[{"search":{"query":{"labels":[1]},"k":64}},{"topk":{"k":4}}]}`,
		`{"stages":[{"search":{"query":{"labels":[1]},"k":64}},{"group_by":{"key":"score_bucket"}}]}`,
	}
	for pi, body := range plans {
		for trial := 0; trial < 20; trial++ {
			pl := planFor(t, body)
			single := NewAggregator(pl)
			parts := []*Aggregator{NewAggregator(pl), NewAggregator(pl), NewAggregator(pl)}
			n := rng.Intn(60)
			for i := 0; i < n; i++ {
				row := Row{ID: i, G: chain(0, rng.Intn(4), rng.Intn(4))}
				if pl.Search != nil {
					// Sixteenths are exact in binary, so partial sums merge
					// bit-identically regardless of addition order.
					row.Distance = float64(rng.Intn(16)) / 16
					row.HasDistance = true
					row.Engine = "mapped"
				}
				single.Add(row)
				parts[rng.Intn(len(parts))].Add(row)
			}
			merged := parts[0]
			merged.Merge(parts[1])
			merged.Merge(parts[2])
			got, want := merged.Finish(), single.Finish()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plan %d trial %d: merged %+v != single %+v", pi, trial, got, want)
			}
			if merged.Matched() != single.Matched() {
				t.Fatalf("plan %d trial %d: matched %d != %d", pi, trial, merged.Matched(), single.Matched())
			}
		}
	}
}

func TestStageErrorFormat(t *testing.T) {
	err := stageErrf(2, "frobnicate", "unknown stage type")
	want := `pipeline: stage 2 ("frobnicate"): unknown stage type`
	if err.Error() != want {
		t.Fatalf("got %q, want %q", err.Error(), want)
	}
	var se *StageError
	if !errors.As(fmt.Errorf("wrapped: %w", err), &se) || se.Index != 2 {
		t.Fatal("StageError does not survive wrapping")
	}
}

func TestGraphSpecErrors(t *testing.T) {
	cases := []GraphSpec{
		{},                  // no vertices
		{Labels: []int{-1}}, // negative label
		{Labels: []int{1}, Edges: [][3]int{{0, 1, 0}}},     // edge out of range
		{Labels: []int{1, 2}, Edges: [][3]int{{0, 1, -1}}}, // negative edge label
		{Labels: []int{4294967297}},                        // vertex label past int32
		{Labels: []int{1, 2147483648}},
		{Labels: []int{0, 1}, Edges: [][3]int{{0, 1, 4294967298}}}, // edge label past int32
	}
	for i, spec := range cases {
		if _, err := spec.Build(); err == nil {
			t.Fatalf("case %d: bad spec accepted", i)
		}
	}
}
