package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
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

	// What a one-pass decoder can get wrong: key case, repeated keys,
	// nulls, trailing bytes, and which refusal wins.
	`{"stages":[{"Filter":{}}]}`,
	`{"STAGES":[{"count":{}}]}`,
	`{"ſtages":[{"count":{}}]}`,
	`{"stages":[{"count":{}}],"Stages":[{"filter":{}}]}`,
	`{"stages":[{"filter":{"min_vertices":2},"filter":{"max_vertices":5,"min_vertices":1}}]}`,
	`{"stages":[{"filter":{"vertex_labels":[{"label":1}]},"filter":{"vertex_labels":[{"label":2}]}}]}`,
	`{"stages":[{"count":{},"count":null}]}`,
	`{"stages":[{"count":null,"count":{}}]}`,
	`{"stages":[{"count":5,"count":{}}]}`,
	`{"stages":[{"filter":{},"Filter":{}}]}`,
	`{"stages":[{"filter":{"knob":1},"count":{}}]}`,
	`{"stages":[{"frobnicate":{"x":[1,{"y":2}]},"frobnicate":{}}]}`,
	`{"stages":[{"bogus":{}}],"stages":[{"count":{}}]}`,
	`{"stages":[{"count":{}}],"stages":[{"bogus":{}}]}`,
	`{"stages":[{"count":{}}],"stages":null}`,
	`{"stages":[{"bogus":{}}],"extra":1}`,
	`{"stages":[{"bogus":{}}],`,
	`{"stages":[{"bogus":{}},{"count":{}`,
	`{"stages":[{"bogus":{}},{"count":{}}],"stages":5}`,
	`null`,
	`{"stages":null}`,
	`{"stages":{}}`,
	`[{"stages":[]}]`,
	`"stages"`,
	``,
	`{"stages":[{"count":{}}]} trailing`,
	`{"stages":[{"count":{}}]}{"stages":[]}`,
	`{"stages":[null]}`,
	`{"stages":[[{"count":{}}],{"count":{}}]}`,
	`{"stages":[1e999]}`,
	`{"stages":[{"topk":{"k":1e999}}]}`,
	`{"stages":[{"topk":{"k":1.5}},{"bogus":{}}]}`,
	`{"stages":[{"filt\u0065r":{}}]}`,

	// encoding/json's quirks a hand-written decoder must repeat. Body
	// fields fold case, the Kelvin sign and long s included.
	`{"stages":[{"search":{"query":{"labels":[1]},"K":3}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"\u212a":3}}]}`,
	"{\"stages\":[{\"topk\":{\"\u212a\":2}}]}",
	`{"stages":[{"filter":{"MIN_VERTICES":2,"dim\u017f_all":[1]}}]}`,
	"{\"stages\":[{\"search\":{\"query\":{\"label\u017f\":[1]},\"k\":1}}]}",
	// A repeated query decodes into the same GraphSpec, its slices element
	// by element; edge triples drop extra elements and zero-fill.
	`{"stages":[{"search":{"query":{"labels":[1,2,3],"edges":[[0,1,0],[1,2,1]]},"k":2,"query":{"labels":[4]}}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1,2,3],"edges":[[0,1,4],[1,2,1]]},"k":2,"query":{"labels":[4]},"query":{"labels":[5,null],"edges":[[null,2]]}}}]}`,
	`{"stages":[{"filter":{"vertex_labels":[{"label":1,"min_count":3},{"label":2,"min_count":4}]},"filter":{"vertex_labels":[{"label":5}]},"filter":{"vertex_labels":[{"label":6},null]}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1,2],"edges":[[0,1,4]]},"k":1,"query":{"edges":[null,[1]]}}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1,2],"edges":[[0,1],[1,0,2,{"x":[1]}]]},"k":1}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1,2],"edges":[[],[0],[0,1,2,"x"]]},"k":1}}]}`,
	// null for each field kind.
	`{"stages":[{"search":{"query":{"labels":[1]},"k":2,"k":null}}]}`,
	`{"stages":[{"filter":{"dims_all":[1],"dims_all":null}}]}`,
	`{"stages":[{"search":{"query":null,"k":1}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":1,"engine":"exact","engine":null}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"k":1}},{"group_by":{"key":"score_bucket","bucket_width":null}}]}`,
	`{"stages":[{"filter":{"vertex_labels":[null,{"label":1}],"dims_any":[null,2]}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1,2],"edges":[null]},"k":1}}]}`,
	`{"stages":[{"search":{"query":{"labels":null,"edges":null},"k":1}}]}`,
	// Integers refuse fractions, exponents and overflow; floats overflow.
	`{"stages":[{"limit":{"n":1.0}}]}`,
	`{"stages":[{"limit":{"n":1e2}}]}`,
	`{"stages":[{"limit":{"n":-0}}]}`,
	`{"stages":[{"limit":{"n":9223372036854775808}}]}`,
	`{"stages":[{"limit":{"n":9223372036854775807}}]}`,
	`{"stages":[{"filter":{"min_edges":-9223372036854775808}}]}`,
	`{"stages":[{"group_by":{"key":"edge_label","bucket_width":1e999}}]}`,
	`{"stages":[{"group_by":{"key":"edge_label","bucket_width":-1.5e-999}}]}`,
	// Invalid UTF-8 reads as U+FFFD, so these two keys are one; escapes
	// and surrogates decode in keys and values.
	"{\"stages\":[{\"frob\xffnicate\":{},\"frob\xfenicate\":{}}]}",
	"{\"stages\":[{\"search\":{\"query\":{\"labels\":[1]},\"k\":1,\"engine\":\"ex\xffact\"}}]}",
	`{"st\u0061ges":[{"c\u006funt":{}}]}`,
	`{"stages":[{"search":{"query":{"labels":[1]},"\u006b":1,"engine":"\u0065xact","metric":"\ud83d\ude00"}}]}`,
	`{"stages":[{"\ud800":{},"\udbff":{}}]}`,
	`{"stages":[{"\ud83d\ude00":{}}]}`,
	`{"stages":[{"count":{"\ud800\u0041":1}}]}`,
	// Bytes after the document, and nesting at and past 10,000 levels.
	"{\"stages\":[{\"count\":{}}]}]]]garbage\x00",
	`{"stages":[{"frobnicate":` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `}]}`,
	`{"stages":[{"frobnicate":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]}`,
}

// noPruneDoc names the search stage's former no_prune field; there is
// one scan now, so the field is unknown and the document refused.
const noPruneDoc = `{"stages":[{"search":{"query":{"labels":[1]},"k":3,"no_prune":true}}]}`

// FuzzParse: Parse never panics; it accepts and refuses exactly what
// referenceParse does, with the same Pipeline and the same StageError
// index and name; every document it accepts either plans or fails Plan
// with a *StageError; and the accepted Pipeline survives a json.Marshal
// and a second Parse unchanged.
func FuzzParse(f *testing.F) {
	if _, err := Parse([]byte(noPruneDoc)); err == nil {
		f.Fatal("Parse accepted a search stage naming no_prune")
	}
	for _, s := range append(parseSeeds, noPruneDoc) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		ref, refErr := referenceParse(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse error %v, reference error %v", err, refErr)
		}
		if err != nil {
			var se, refSE *StageError
			isStage, refIsStage := errors.As(err, &se), errors.As(refErr, &refSE)
			if isStage != refIsStage || isStage && (se.Index != refSE.Index || se.Name != refSE.Name) {
				t.Fatalf("Parse refused with %v, reference with %v", err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(p, ref) {
			t.Fatalf("Parse and the reference disagree:\ngot  %+v\nwant %+v", p, ref)
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

// referenceParse is the three-decode Parse that the one-pass Parse
// replaced, kept as FuzzParse's oracle: the document into
// []json.RawMessage, each stage into a map of its keys, then the stage
// through its own strict decoder.
func referenceParse(data []byte) (*Pipeline, error) {
	var raw struct {
		Stages []json.RawMessage `json:"stages"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("pipeline: %v", err)
	}
	if len(raw.Stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	p := &Pipeline{Stages: make([]Stage, len(raw.Stages))}
	for i, rs := range raw.Stages {
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(rs, &keys); err != nil {
			return nil, stageErrf(i, "", "not a JSON object: %v", err)
		}
		if len(keys) != 1 {
			return nil, stageErrf(i, "", "want exactly one stage-type key per stage, got %d", len(keys))
		}
		var name string
		for k := range keys {
			name = k
		}
		switch name {
		case "filter", "search", "topk", "limit", "count", "group_by":
		default:
			return nil, stageErrf(i, name, "unknown stage type")
		}
		sd := json.NewDecoder(bytes.NewReader(rs))
		sd.DisallowUnknownFields()
		if err := sd.Decode(&p.Stages[i]); err != nil {
			return nil, stageErrf(i, name, "%v", err)
		}
		if _, _, set := p.Stages[i].parts(); set == 0 {
			return nil, stageErrf(i, name, "stage body is null")
		}
	}
	return p, nil
}

// FuzzGraphSpec checks the wire graph shape the search stage and the
// ingest endpoint share: for any JSON line whose Build succeeds, the
// graph has exactly the listed vertices, each with its label, and
// exactly the listed edges.
func FuzzGraphSpec(f *testing.F) {
	for _, s := range []string{
		`{"labels":[6,7],"edges":[[0,1,2]]}`,
		`{"labels":[1,2,3],"edges":[[2,0,1],[1,2,0]]}`,
		`{"labels":[4]}`,
		`{"labels":[]}`,
		`{"labels":[0,0],"edges":[[0,0,0]]}`,
		`{"labels":[1,2],"edges":[[0,5,0]]}`,
		`{"labels":[4294967297]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var spec GraphSpec
		if json.Unmarshal(line, &spec) != nil {
			return
		}
		g, err := spec.Build()
		if err != nil {
			return
		}
		if g.N() != len(spec.Labels) {
			t.Fatalf("%s: built %d vertices, want %d", line, g.N(), len(spec.Labels))
		}
		for v, l := range spec.Labels {
			if int(g.VertexLabel(v)) != l {
				t.Fatalf("%s: vertex %d has label %d, want %d", line, v, g.VertexLabel(v), l)
			}
		}
		want := make([]graph.Edge, len(spec.Edges))
		for i, e := range spec.Edges {
			want[i] = graph.Edge{U: min(e[0], e[1]), V: max(e[0], e[1]), Label: graph.Label(e[2])}
		}
		sort.Slice(want, func(i, j int) bool {
			return want[i].U < want[j].U || want[i].U == want[j].U && want[i].V < want[j].V
		})
		if got := g.Edges(); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: built edges %v, want %v", line, got, want)
		}
	})
}
