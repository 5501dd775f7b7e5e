package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/graphdim"
	"repro/internal/pipeline"
)

// pipelineFor builds a filter → search → group_by document around
// database graph 0: a pushable label predicate, a residual count
// predicate, the graph itself as the inline query.
func pipelineFor(t *testing.T, coll *graphdim.Collection) *pipeline.Pipeline {
	t.Helper()
	g, ok := coll.Graph(0)
	if !ok {
		t.Fatal("Graph(0) missing")
	}
	spec := &pipeline.GraphSpec{}
	for v := 0; v < g.N(); v++ {
		spec.Labels = append(spec.Labels, int(g.VertexLabel(v)))
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, [3]int{e.U, e.V, int(e.Label)})
	}
	return &pipeline.Pipeline{Stages: []pipeline.Stage{
		{Filter: &pipeline.Filter{
			MinVertices:  2,
			VertexLabels: []pipeline.LabelCount{{Label: spec.Labels[0]}},
		}},
		{Search: &pipeline.Search{Query: spec, K: 6}},
		{GroupBy: &pipeline.GroupBy{Key: pipeline.KeyScoreBucket}},
	}}
}

// TestQueryEndpointMatchesCollectionQuery: the HTTP surface answers a
// filter+search+group_by pipeline exactly like Collection.Query, on a
// sharded collection, and carries the freshness token of a read.
func TestQueryEndpointMatchesCollectionQuery(t *testing.T) {
	ts, coll := newTestServer(t, 2, 30*time.Second)
	p := pipelineFor(t, coll)
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/collections/default/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	if resp.Header.Get(freshnessHeader) != freshnessToken(coll) {
		t.Errorf("%s = %q, want %q", freshnessHeader, resp.Header.Get(freshnessHeader), freshnessToken(coll))
	}
	var got pipeline.Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	want, err := coll.Query(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Groups) == 0 {
		t.Fatal("reference pipeline produced no groups; the comparison would be vacuous")
	}
	// Compare the wire form: Group carries unexported sort state and
	// Stats carries wall times.
	wantGroups, _ := json.Marshal(want.Groups)
	gotGroups, _ := json.Marshal(got.Groups)
	if string(wantGroups) != string(gotGroups) || !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Count, want.Count) {
		t.Fatalf("HTTP result diverges from Collection.Query:\n%s\nwant groups %s", data, wantGroups)
	}
	gs, ws := got.Stats, want.Stats
	if gs.Matched != ws.Matched || gs.Candidates != ws.Candidates || gs.Engine != ws.Engine ||
		gs.PushedPredicates != ws.PushedPredicates || gs.FallbackPredicates != ws.FallbackPredicates {
		t.Fatalf("stats diverge: got %+v want %+v", gs, ws)
	}
	if gs.PushedPredicates == 0 || gs.FallbackPredicates == 0 || len(gs.Stages) == 0 {
		t.Fatalf("stats lack the pushdown/fallback split or stage timings: %+v", gs)
	}

	// The run landed on /metrics: stage summaries and the pushdown split.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{
		`gserve_pipeline_stage_duration_seconds_count{stage="search"}`,
		`gserve_pipeline_pushdown_total{outcome="pushdown"}`,
		`gserve_pipeline_pushdown_total{outcome="fallback"}`,
	} {
		if !strings.Contains(string(scrape), series) {
			t.Errorf("/metrics lacks %s after a pipeline query", series)
		}
	}
}

func TestQueryEndpointRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 2, 30*time.Second)
	const search = `{"search":{"query":{"labels":[0,0],"edges":[[0,1,0]]},"k":3}}`

	for _, tc := range []struct {
		name, method, path, body string
		want                     int
		// stage/stageName are checked when stageName is non-empty: the
		// structured half of the 400 contract.
		stage     int
		stageName string
	}{
		{"wrong method", http.MethodGet, "/v1/collections/default/query", "", http.StatusMethodNotAllowed, 0, ""},
		{"empty body", http.MethodPost, "/v1/collections/default/query", "", http.StatusBadRequest, 0, ""},
		{"invalid JSON", http.MethodPost, "/v1/collections/default/query", `{"stages":`, http.StatusBadRequest, 0, ""},
		{"no stages", http.MethodPost, "/v1/collections/default/query", `{"stages":[]}`, http.StatusBadRequest, 0, ""},
		{"unknown stage", http.MethodPost, "/v1/collections/default/query", `{"stages":[` + search + `,{"explode":{}}]}`, http.StatusBadRequest, 1, "explode"},
		{"stage out of order", http.MethodPost, "/v1/collections/default/query", `{"stages":[{"count":{}},{"filter":{"min_edges":1}}]}`, http.StatusBadRequest, 1, "filter"},
		{"topk without search", http.MethodPost, "/v1/collections/default/query", `{"stages":[{"filter":{"min_edges":1}},{"topk":{"k":3}}]}`, http.StatusBadRequest, 1, "topk"},
		{"bad k", http.MethodPost, "/v1/collections/default/query", `{"stages":[{"search":{"query":{"labels":[0]},"k":0}}]}`, http.StatusBadRequest, 0, "search"},
		{"dimension out of range", http.MethodPost, "/v1/collections/default/query", `{"stages":[{"filter":{"dims_all":[99999]}},{"count":{}}]}`, http.StatusBadRequest, 0, "filter"},
		{"unknown collection", http.MethodPost, "/v1/collections/ghost/query", `{"stages":[{"count":{}}]}`, http.StatusNotFound, 0, ""},
		{"oversized body", http.MethodPost, "/v1/collections/default/query", `{"stages":[{"count":{}}],"pad":"` + strings.Repeat("x", maxPipelineBytes) + `"}`, http.StatusRequestEntityTooLarge, 0, ""},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, data)
			continue
		}
		var out struct {
			Error     string `json:"error"`
			Stage     *int   `json:"stage"`
			StageName string `json:"stage_name"`
		}
		if err := json.Unmarshal(data, &out); err != nil || out.Error == "" {
			t.Errorf("%s: body %q is not a JSON error object", tc.name, data)
			continue
		}
		if tc.stageName == "" {
			if out.Stage != nil {
				t.Errorf("%s: unexpected stage field in %s", tc.name, data)
			}
			continue
		}
		if out.Stage == nil || *out.Stage != tc.stage || out.StageName != tc.stageName {
			t.Errorf("%s: body %s, want stage %d stage_name %q", tc.name, data, tc.stage, tc.stageName)
		}
	}
}

// TestQueryEndpointShedsOnFullReadLane: /query is a read — a saturated
// read lane sheds it with 429 + Retry-After before the body is parsed,
// and a full write lane does not touch it.
func TestQueryEndpointShedsOnFullReadLane(t *testing.T) {
	store := graphdim.NewStore(graphdim.StoreOptions{})
	t.Cleanup(store.Close)
	if _, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	s := newServerCfg(store, serverConfig{defaultK: 10, timeout: 30 * time.Second, maxReads: 1, maxWrites: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/collections/default/query", "application/json", strings.NewReader(`{"stages":[{"count":{}}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	lanes := s.lanes("default")
	if !lanes.read.TryEnter() {
		t.Fatal("could not saturate read lane")
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("query under full read lane: status %d Retry-After %q, want 429 with a delay", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	lanes.read.Leave()

	if !lanes.write.TryEnter() {
		t.Fatal("could not saturate write lane")
	}
	defer lanes.write.Leave()
	if resp := post(); resp.StatusCode != http.StatusOK {
		t.Fatalf("query under full WRITE lane: status %d, want 200", resp.StatusCode)
	}
}
