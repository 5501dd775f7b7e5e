package pipeline

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// parseSeeds are the documents the unit tests feed Parse, accepted and
// refused alike.
var parseSeeds = []string{
	`{"stages":[
		{"filter":{"min_vertices":2,"vertex_labels":[{"label":7,"min_count":2}]}},
		{"search":{"query":{"labels":[1,2],"edges":[[0,1,0]]},"k":5,"engine":"verified"}},
		{"topk":{"k":3}},
		{"group_by":{"key":"score_bucket","bucket_width":0.1}}
	]}`,
	`{"stages":[`,
	`{"stages":[]}`,
	`{"stage":[]}`,
	`{"stages":[{"filter":{}},{"frobnicate":{}}]}`,
	`{"stages":[{"filter":{},"count":{}}]}`,
	`{"stages":[{}]}`,
	`{"stages":[{"search":{"k":1,"knob":true}}]}`,
	`{"stages":["filter"]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":1}},{"filter":{}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":1}},{"search":{"query":{"labels":[1]},"k":1}}]}`,
	`{"stages":[{"filter":{}},{"topk":{"k":3}}]}`,
	`{"stages":[{"group_by":{"key":"engine"}}]}`,
	`{"stages":[{"group_by":{"key":"color"}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":0}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":1,"engine":"warp"}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":1,"metric":"cosine"}}]}`,
	`{"stages":[{"search":{"k":1}}]}`,
	`{"stages":[{"limit":{"n":0}}]}`,
	`{"stages":[{"filter":{"min_vertices":5,"max_vertices":2}}]}`,
	`{"stages":[{"filter":{"vertex_labels":[{"label":-1}]}}]}`,
	`{"stages":[{"filter":{"min_edges":1}}]}`,
	`{"stages":[{"count":{}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":10}},{"topk":{"k":3}}]}`,
	`{"stages":[{"filter":{}},{"limit":{"n":2}}]}`,
	`{"stages":[{"group_by":{"key":"vertex_label"}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":4}},{"group_by":{"key":"score_bucket","bucket_width":0.5}}]}`,
	`{"stages":[{"filter":{}},{"limit":{"n":5}}]}`,
	`{"stages":[{"filter":{}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":64}},{"topk":{"k":4}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":64}},{"group_by":{"key":"score_bucket"}}]}`,
	`{"stages":[{"filter":{"dims_all":[],"dims_any":[3,1,3],"min_ones":1,"max_ones":4,"edge_labels":[]}},{"count":{}}]}`,
	`{"stages":[{"count":null}]}`,
}

// noPruneDoc names the search stage's former no_prune field; there is
// one scan now, so the field is unknown and the document refused.
const noPruneDoc = `{"stages":[{"search":{"query":{"labels":[1]},"k":3,"no_prune":true}}]}`

// FuzzParse: Parse never panics; every document it accepts either plans
// or fails Plan with a *StageError; and the accepted Pipeline survives a
// json.Marshal and a second Parse unchanged.
func FuzzParse(f *testing.F) {
	if _, err := Parse([]byte(noPruneDoc)); err == nil {
		f.Fatal("Parse accepted a search stage naming no_prune")
	}
	for _, s := range append(parseSeeds, noPruneDoc) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		if _, err := p.Plan(); err != nil {
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("Plan of an accepted document failed with %T %v, want a *StageError", err, err)
			}
		}
		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("Marshal of an accepted document: %v", err)
		}
		again, err := Parse(wire)
		if err != nil {
			t.Fatalf("Parse refuses its own output %s: %v", wire, err)
		}
		if want := withoutEmptyLists(p); !reflect.DeepEqual(again, want) {
			t.Fatalf("round trip through %s changed the pipeline:\ngot  %+v\nwant %+v", wire, again, want)
		}
	})
}

// withoutEmptyLists is p with every empty filter list nil: omitempty
// drops an empty list from the wire, and no list means the same as an
// empty one (no constraint).
func withoutEmptyLists(p *Pipeline) *Pipeline {
	out := &Pipeline{Stages: append([]Stage(nil), p.Stages...)}
	for i, s := range out.Stages {
		if s.Filter == nil {
			continue
		}
		f := *s.Filter
		if len(f.VertexLabels) == 0 {
			f.VertexLabels = nil
		}
		if len(f.EdgeLabels) == 0 {
			f.EdgeLabels = nil
		}
		if len(f.DimsAll) == 0 {
			f.DimsAll = nil
		}
		if len(f.DimsAny) == 0 {
			f.DimsAny = nil
		}
		out.Stages[i].Filter = &f
	}
	return out
}
