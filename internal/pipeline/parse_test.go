package pipeline

import (
	"strings"
	"testing"
)

// Documents shaped like the benchmark's generated pipelines, as
// json.Marshal writes them: a filtered search with a small query graph,
// a filtered count, and a filtered group_by.
var (
	searchDoc = []byte(`{"stages":[{"filter":{"min_vertices":13,"vertex_labels":[{"label":2,"min_count":1}]}},` +
		`{"search":{"query":{"labels":[0,0,1,0,2],"edges":[[0,1,0],[1,2,0],[1,3,1],[3,4,0]]},"k":10}}]}`)
	countDoc = []byte(`{"stages":[{"filter":{"min_vertices":11,"min_edges":17,"vertex_labels":[{"label":3,"min_count":2}],` +
		`"edge_labels":[{"label":1,"min_count":2}]}},{"count":{}}]}`)
	groupDoc = []byte(`{"stages":[{"filter":{"min_edges":9,"vertex_labels":[{"label":1,"min_count":1}]}},` +
		`{"group_by":{"key":"edge_label"}}]}`)
)

func BenchmarkParse(b *testing.B) {
	for _, bc := range []struct {
		name string
		doc  []byte
	}{{"search", searchDoc}, {"count", countDoc}, {"group_by", groupDoc}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.doc)))
			for i := 0; i < b.N; i++ {
				if _, err := Parse(bc.doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParseAllocsBounded: Parse allocates only what the returned
// Pipeline holds. The search document holds eight values: the Pipeline,
// its stages, the Filter and its label list, the Search, its GraphSpec,
// and the spec's labels and edges.
func TestParseAllocsBounded(t *testing.T) {
	for _, doc := range [][]byte{searchDoc, countDoc, groupDoc} {
		if _, err := Parse(doc); err != nil {
			t.Fatalf("Parse(%s): %v", doc, err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() { Parse(searchDoc) })
	if allocs > 12 {
		t.Fatalf("Parse of the search document: %.0f allocations, want at most 12", allocs)
	}
}

// TestLabelsAboveInt32AreRefused: graph labels are int32, so a larger
// label in a filter would match the label it wraps to.
func TestLabelsAboveInt32AreRefused(t *testing.T) {
	for _, f := range []Filter{
		{VertexLabels: []LabelCount{{Label: 4294967297}}},
		{EdgeLabels: []LabelCount{{Label: 2147483648, MinCount: 1}}},
	} {
		err := f.Validate()
		if err == nil || !strings.Contains(err.Error(), "label") {
			t.Errorf("Validate(%+v) = %v, want a label range error", f, err)
		}
	}
	if err := (&Filter{VertexLabels: []LabelCount{{Label: 2147483647}}}).Validate(); err != nil {
		t.Errorf("Validate refused the largest label: %v", err)
	}
	if _, err := (&GraphSpec{Labels: []int{2147483647, 0}, Edges: [][3]int{{0, 1, 2147483647}}}).Build(); err != nil {
		t.Errorf("Build refused the largest label: %v", err)
	}
}
