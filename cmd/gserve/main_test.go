package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/graphdim"
	"repro/internal/dataset"
)

// buildTestIndex builds a small index and round-trips it through the
// persistence layer, exercising the same load path main uses.
func buildTestIndex(t testing.TB) *graphdim.Index {
	t.Helper()
	db := dataset.Chemical(dataset.ChemConfig{N: 25, MinVertices: 8, MaxVertices: 12, Seed: 7})
	idx, err := graphdim.Build(db, graphdim.Options{Dimensions: 12, Tau: 0.2, MCSBudget: 1500})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := graphdim.ReadIndex(&buf)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	return loaded
}

// newTestServer stands up the full handler around a store whose default
// collection wraps the test index across the given number of shards.
func newTestServer(t *testing.T, shards int, timeout time.Duration) (*httptest.Server, *graphdim.Collection) {
	t.Helper()
	ts, store := newTestServerStore(t, shards, timeout)
	coll, _ := store.Collection("default")
	return ts, coll
}

// newTestServerStore is newTestServer handing back the store behind the
// server, for tests that need an operation the HTTP surface does not
// expose (Remove).
func newTestServerStore(t *testing.T, shards int, timeout time.Duration) (*httptest.Server, *graphdim.Store) {
	t.Helper()
	store := graphdim.NewStore(graphdim.StoreOptions{})
	t.Cleanup(store.Close)
	_, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{
		Shards: shards,
		// Mirror main: the default collection serves through the
		// query-result cache.
		Cache: graphdim.CacheOptions{MaxEntries: 256},
	})
	if err != nil {
		t.Fatalf("CreateFromIndex: %v", err)
	}
	ts := httptest.NewServer(newServer(store, 10, timeout))
	t.Cleanup(ts.Close)
	return ts, store
}

func queriesText(t *testing.T, coll *graphdim.Collection, n int) string {
	t.Helper()
	var buf bytes.Buffer
	gs := make([]*graphdim.Graph, n)
	for i := 0; i < n; i++ {
		g, ok := coll.Graph(i)
		if !ok {
			t.Fatalf("Graph(%d) missing", i)
		}
		gs[i] = g
	}
	if err := graphdim.WriteGraphs(&buf, gs); err != nil {
		t.Fatalf("WriteGraphs: %v", err)
	}
	return buf.String()
}

func TestSearchEndpoint(t *testing.T) {
	ts, coll := newTestServer(t, 1, 30*time.Second)

	body := queriesText(t, coll, 3)
	resp, err := http.Post(ts.URL+"/v1/collections/default/search?k=5", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// No engine knob: the mapped engine answers.
	if out.K != 5 || out.Queries != 3 || len(out.Results) != 3 || out.Engine != "mapped" {
		t.Fatalf("unexpected response shape: k=%d queries=%d results=%d engine=%s", out.K, out.Queries, len(out.Results), out.Engine)
	}
	for qi, batch := range out.Results {
		if len(batch) != 5 {
			t.Fatalf("query %d: got %d results, want 5", qi, len(batch))
		}
		// Each query is a database graph: its own id must rank at
		// distance 0.
		if batch[0].Distance != 0 {
			t.Fatalf("query %d: nearest distance = %v, want 0", qi, batch[0].Distance)
		}
	}
}

func TestSearchEndpointRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 1, 30*time.Second)

	for _, tc := range []struct {
		name   string
		method string
		url    string
		body   string
		want   int
	}{
		{"wrong method", http.MethodGet, "/v1/collections/default/search", "", http.StatusMethodNotAllowed},
		{"empty body", http.MethodPost, "/v1/collections/default/search", "", http.StatusBadRequest},
		{"bad k", http.MethodPost, "/v1/collections/default/search?k=zero", "t # 0\nv 0 1\n", http.StatusBadRequest},
		{"negative k", http.MethodPost, "/v1/collections/default/search?k=-3", "t # 0\nv 0 1\n", http.StatusBadRequest},
		{"garbage body", http.MethodPost, "/v1/collections/default/search", "not a graph\n", http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestErrorsAreJSON pins the contract that every error body — including
// router-level 404s and 405s — is a JSON object with an "error" key and
// the right Content-Type.
func TestErrorsAreJSON(t *testing.T) {
	ts, _ := newTestServer(t, 2, 30*time.Second)

	for _, tc := range []struct {
		name   string
		method string
		url    string
		body   string
		want   int
	}{
		{"unknown route", http.MethodGet, "/nope", "", http.StatusNotFound},
		{"root", http.MethodGet, "/", "", http.StatusNotFound},
		{"unversioned search", http.MethodPost, "/search", "t # 0\nv 0 1\n", http.StatusNotFound},
		{"unversioned add", http.MethodPost, "/add", "t # 0\nv 0 1\n", http.StatusNotFound},
		{"unversioned topk", http.MethodPost, "/topk", "t # 0\nv 0 1\n", http.StatusNotFound},
		{"v1 search wrong method", http.MethodGet, "/v1/collections/default/search", "", http.StatusMethodNotAllowed},
		{"v1 add wrong method", http.MethodGet, "/v1/collections/default/add", "", http.StatusMethodNotAllowed},
		{"v1 collections wrong method", http.MethodDelete, "/v1/collections", "", http.StatusMethodNotAllowed},
		{"v1 create without name", http.MethodPost, "/v1/collections", "t # 0\nv 0 1\n", http.StatusBadRequest},
		{"v1 unknown collection", http.MethodPost, "/v1/collections/ghost/search", "t # 0\nv 0 1\n", http.StatusNotFound},
		{"v1 unknown action", http.MethodPost, "/v1/collections/default/explode", "", http.StatusNotFound},
		{"v1 stats wrong method", http.MethodPost, "/v1/collections/default/stats", "", http.StatusMethodNotAllowed},
		{"v1 bad engine", http.MethodPost, "/v1/collections/default/search?engine=warp", "t # 0\nv 0 1\n", http.StatusBadRequest},
		{"v1 garbage graphs", http.MethodPost, "/v1/collections/default/search", "not a graph", http.StatusBadRequest},
		{"v1 compact wrong method", http.MethodGet, "/v1/collections/default/compact", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
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
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", tc.name, ct)
		}
		var out map[string]string
		if err := json.Unmarshal(data, &out); err != nil || out["error"] == "" {
			t.Errorf("%s: body %q is not a JSON error object", tc.name, data)
		}
	}
}

func TestHealthzAndStats(t *testing.T) {
	ts, coll := newTestServer(t, 2, 30*time.Second)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["collections"].(float64) != 1 {
		t.Fatalf("healthz = %v", health)
	}

	// Serve a batch, then confirm the counters moved.
	body := queriesText(t, coll, 2)
	if _, err := http.Post(ts.URL+"/v1/collections/default/search", "text/plain", strings.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		SearchRequests  float64                            `json:"search_requests"`
		QueriesAnswered float64                            `json:"queries_answered"`
		Collections     map[string]collectionStatsResponse `json:"collections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.SearchRequests != 1 {
		t.Fatalf("search_requests = %v, want 1", stats.SearchRequests)
	}
	if stats.QueriesAnswered != 2 {
		t.Fatalf("queries_answered = %v, want 2", stats.QueriesAnswered)
	}
	def, ok := stats.Collections["default"]
	if !ok || len(def.Shards) != 2 || def.Live != coll.Size() {
		t.Fatalf("stats missing sharded default collection: %+v", stats.Collections)
	}
}

func TestSearchEndpointEngines(t *testing.T) {
	ts, coll := newTestServer(t, 1, 30*time.Second)

	body := queriesText(t, coll, 2)
	for _, engine := range []string{"mapped", "verified", "exact"} {
		resp, err := http.Post(ts.URL+"/v1/collections/default/search?k=4&engine="+engine+"&factor=2", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out searchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", engine, resp.StatusCode)
		}
		if out.Engine != engine || out.K != 4 || len(out.Results) != 2 || len(out.Matched) != 2 {
			t.Fatalf("%s: bad response shape: %+v", engine, out)
		}
		for qi, batch := range out.Results {
			if len(batch) != 4 {
				t.Fatalf("%s query %d: got %d results, want 4", engine, qi, len(batch))
			}
			// Each query is a database graph: its own id ranks at 0.
			if batch[0].Distance != 0 {
				t.Fatalf("%s query %d: nearest distance = %v, want 0", engine, qi, batch[0].Distance)
			}
		}
	}

	// Bad knobs are rejected.
	for _, url := range []string{
		"/v1/collections/default/search?engine=warp",
		"/v1/collections/default/search?k=0",
		"/v1/collections/default/search?factor=-1",
		"/v1/collections/default/search?maxcand=-2",
	} {
		resp, err := http.Post(ts.URL+url, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", url, resp.StatusCode)
		}
	}
}

// TestShardedSearchMatchesUnsharded runs the same queries against a
// 1-shard and a 3-shard server over the same index and expects identical
// payloads — the HTTP layer's view of the equivalence guarantee.
func TestShardedSearchMatchesUnsharded(t *testing.T) {
	flat, coll := newTestServer(t, 1, 30*time.Second)
	sharded, _ := newTestServer(t, 3, 30*time.Second)

	body := queriesText(t, coll, 3)
	for _, q := range []string{"?k=7", "?k=7&engine=exact", "?k=5"} {
		read := func(base string) searchResponse {
			resp, err := http.Post(base+"/v1/collections/default/search"+q, "text/plain", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", q, resp.StatusCode)
			}
			var out searchResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			return out
		}
		a, b := read(flat.URL), read(sharded.URL)
		if len(a.Results) != len(b.Results) {
			t.Fatalf("%s: %d vs %d result lists", q, len(a.Results), len(b.Results))
		}
		for i := range a.Results {
			if len(a.Results[i]) != len(b.Results[i]) {
				t.Fatalf("%s query %d: %d vs %d results", q, i, len(a.Results[i]), len(b.Results[i]))
			}
			for j := range a.Results[i] {
				if a.Results[i][j] != b.Results[i][j] {
					t.Fatalf("%s query %d rank %d: %+v vs %+v", q, i, j, a.Results[i][j], b.Results[i][j])
				}
			}
		}
	}
}

func TestAddEndpoint(t *testing.T) {
	ts, coll := newTestServer(t, 2, 30*time.Second)

	before := coll.Size()
	newGraphs := dataset.Chemical(dataset.ChemConfig{N: 3, MinVertices: 8, MaxVertices: 12, Seed: 31})
	var buf bytes.Buffer
	if err := graphdim.WriteGraphs(&buf, newGraphs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/collections/default/add", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var out addResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.IDs) != 3 || out.Size != before+3 || out.StaleRatio <= 0 {
		t.Fatalf("bad add response: %+v", out)
	}
	if len(out.StaleRatios) != 2 {
		t.Fatalf("stale_ratios = %v, want one entry per shard", out.StaleRatios)
	}

	// The added graphs are immediately searchable: self query hits its
	// new id at distance 0.
	var qbuf bytes.Buffer
	if err := graphdim.WriteGraphs(&qbuf, newGraphs[:1]); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/collections/default/search?k=100", "text/plain", &qbuf)
	if err != nil {
		t.Fatal(err)
	}
	var sout searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sout); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sout.Results) != 1 {
		t.Fatalf("bad search response after add: %+v", sout)
	}
	// The new id must rank at distance 0 (other graphs may tie with an
	// identical feature profile, so don't insist it ranks first).
	found := false
	for _, r := range sout.Results[0] {
		if r.ID == out.IDs[0] {
			found = true
			if r.Distance != 0 {
				t.Fatalf("self query after add: id %d at distance %v, want 0", r.ID, r.Distance)
			}
		}
	}
	if !found {
		t.Fatalf("added id %d missing from search results", out.IDs[0])
	}

	// Garbage and empty bodies are rejected.
	for _, body := range []string{"", "not a graph"} {
		resp, err := http.Post(ts.URL+"/v1/collections/default/add", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("add %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestV1CollectionLifecycle walks create → list → search → stats →
// compact → delete through the versioned API.
func TestV1CollectionLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, 1, 30*time.Second)

	db := dataset.Chemical(dataset.ChemConfig{N: 14, MinVertices: 8, MaxVertices: 12, Seed: 99})
	var buf bytes.Buffer
	if err := graphdim.WriteGraphs(&buf, db); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/collections?name=mols&shards=2&dimensions=10&tau=0.25&k=3", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var created collectionStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	if created.Name != "mols" || len(created.Shards) != 2 || created.Live != len(db) {
		t.Fatalf("create response: %+v", created)
	}

	// Duplicate names are rejected.
	var again bytes.Buffer
	if err := graphdim.WriteGraphs(&again, db); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/collections?name=mols", "text/plain", &again)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate create status = %d, want 400", resp.StatusCode)
	}

	// List shows both collections.
	resp, err = http.Get(ts.URL + "/v1/collections")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Collections []collectionSummary `json:"collections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Collections) != 2 || list.Collections[0].Name != "default" || list.Collections[1].Name != "mols" {
		t.Fatalf("list = %+v", list.Collections)
	}

	// Search uses the collection's default k=3 when none is given.
	var qbuf bytes.Buffer
	if err := graphdim.WriteGraphs(&qbuf, db[:1]); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/collections/mols/search", "text/plain", &qbuf)
	if err != nil {
		t.Fatal(err)
	}
	var sout searchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sout); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sout.Collection != "mols" || sout.K != 3 || len(sout.Results[0]) != 3 {
		t.Fatalf("search on created collection: %+v", sout)
	}

	// Stats via both routes.
	for _, path := range []string{"/v1/collections/mols", "/v1/collections/mols/stats"} {
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var st collectionStatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Name != "mols" || st.NextID != len(db) {
			t.Fatalf("%s: %+v", path, st)
		}
	}

	// Delete, then the collection is gone.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/collections/mols", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/collections/mols/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after delete = %d, want 404", resp.StatusCode)
	}
}

// TestV1CompactEndpoint: growing a collection over HTTP drives it stale
// but gives /compact nothing to do — it never re-selects; once graphs are
// removed (on the store behind the server: there is no remove route) it
// reclaims their slots, leaves every search answer byte-identical, and
// counts in stats.
func TestV1CompactEndpoint(t *testing.T) {
	ts, coll := newTestServer(t, 2, 30*time.Second)

	compact := func() (compacted int, staleRatios []float64) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/collections/default/compact", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Compacted   int       `json:"compacted"`
			StaleRatios []float64 `json:"stale_ratios"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compact status = %d", resp.StatusCode)
		}
		return out.Compacted, out.StaleRatios
	}
	search := func() searchResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/collections/default/search?k=20", "text/plain", strings.NewReader(queriesText(t, coll, 3)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out searchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		out.ElapsedMS = 0
		return out
	}

	// Triple the database: both shards are far past any staleness
	// threshold, and compaction still leaves them alone.
	extra := dataset.Chemical(dataset.ChemConfig{N: 2 * coll.Size(), MinVertices: 8, MaxVertices: 12, Seed: 321})
	var buf bytes.Buffer
	if err := graphdim.WriteGraphs(&buf, extra); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/collections/default/add", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var added addResponse
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	n, ratios := compact()
	if n != 0 {
		t.Fatalf("compacted = %d with nothing removed, want 0", n)
	}
	for i, r := range ratios {
		if r < 0.3 {
			t.Fatalf("shard %d stale ratio %v after a no-op compact, want the staleness still reported", i, r)
		}
	}

	// Tombstones on both shards, then the reclaim.
	if err := coll.Remove(added.IDs[:8]...); err != nil {
		t.Fatal(err)
	}
	before := search()
	if n, _ = compact(); n != 2 {
		t.Fatalf("compacted = %d, want 2", n)
	}
	if after := search(); !reflect.DeepEqual(after, before) {
		t.Fatalf("compaction changed a search answer:\nbefore: %+v\nafter:  %+v", before, after)
	}
	if _, ok := coll.Graph(added.IDs[0]); ok {
		t.Fatalf("reclaimed id %d still resolves", added.IDs[0])
	}

	// Compaction counters surface in stats; the dimension count is the
	// collection's, not a shard's.
	resp, err = http.Get(ts.URL + "/v1/collections/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st collectionStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Dimensions == 0 {
		t.Fatalf("stats report no dimensions: %+v", st)
	}
	for i, sh := range st.Shards {
		if sh.Compactions != 1 || sh.Live != sh.Total {
			t.Fatalf("shard %d: compactions %d, live %d of %d slots; want 1 and no tombstones (%+v)", i, sh.Compactions, sh.Live, sh.Total, st)
		}
	}
}

// TestV1GoldenSession is the scripted end-to-end walk of the /v1 API:
// create (with a cache) → search twice (miss then hit) → add
// (generation fence invalidates) → remove + compact (each invalidates
// again, the answer does not move) →
// stats, asserting the cache hit/miss/invalidation counters and the
// generation vector at every step, plus deprecated-alias parity at the
// end.
func TestV1GoldenSession(t *testing.T) {
	ts, store := newTestServerStore(t, 1, 30*time.Second)
	defColl, _ := store.Collection("default")

	db := dataset.Chemical(dataset.ChemConfig{N: 16, MinVertices: 8, MaxVertices: 12, Seed: 71})
	post := func(path string, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	graphsText := func(gs []*graphdim.Graph) string {
		t.Helper()
		var buf bytes.Buffer
		if err := graphdim.WriteGraphs(&buf, gs); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	stats := func() collectionStatsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/collections/golden/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st collectionStatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// 1. Create with a 32-entry cache across 2 shards.
	resp, data := post("/v1/collections?name=golden&shards=2&dimensions=10&tau=0.25&k=4&cache_entries=32&cache_bytes=1048576", graphsText(db))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	var created collectionStatsResponse
	if err := json.Unmarshal(data, &created); err != nil {
		t.Fatal(err)
	}
	if created.Cache == nil || created.Cache.Entries != 0 || created.Cache.Hits != 0 {
		t.Fatalf("created collection's cache not cold: %+v", created.Cache)
	}
	if len(created.Generations) != 2 || created.Generations[0] != 0 || created.Generations[1] != 0 {
		t.Fatalf("created generations = %v, want [0 0]", created.Generations)
	}

	// 2. The same search twice: miss, then hit, byte-identical results.
	q := graphsText(db[:1])
	resp1, body1 := post("/v1/collections/golden/search?k=5", q)
	resp2, body2 := post("/v1/collections/golden/search?k=5", q)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("search statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	var s1, s2 searchResponse
	if err := json.Unmarshal(body1, &s1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &s2); err != nil {
		t.Fatal(err)
	}
	s1.ElapsedMS, s2.ElapsedMS = 0, 0
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("cache hit changed the payload:\n%s\n%s", body1, body2)
	}
	st := stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("after repeat search: %+v", st.Cache)
	}

	// 3. Add: one shard's generation moves and the cached entry dies; the
	// new graph is immediately visible through the same (cached) route.
	extra := dataset.Chemical(dataset.ChemConfig{N: 1, MinVertices: 8, MaxVertices: 12, Seed: 72})
	resp, data = post("/v1/collections/golden/add", graphsText(extra))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: status %d: %s", resp.StatusCode, data)
	}
	var added addResponse
	if err := json.Unmarshal(data, &added); err != nil {
		t.Fatal(err)
	}
	st = stats()
	if g := st.Generations[0] + st.Generations[1]; g != 1 {
		t.Fatalf("generations after add = %v, want exactly one bump", st.Generations)
	}
	_, body3 := post("/v1/collections/golden/search?k=50", graphsText(extra))
	var s3 searchResponse
	if err := json.Unmarshal(body3, &s3); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range s3.Results[0] {
		if r.ID == added.IDs[0] {
			found = true
		}
	}
	if !found {
		t.Fatalf("added id %d missing from post-add search: %s", added.IDs[0], body3)
	}
	// The k=5 entry from step 2 is fenced out: re-running it must miss.
	preInval := st.Cache.Invalidations
	post("/v1/collections/golden/search?k=5", q)
	st = stats()
	if st.Cache.Invalidations != preInval+1 {
		t.Fatalf("post-add repeat did not invalidate: %+v", st.Cache)
	}

	// 4. Compact. The add left the collection stale, but staleness alone
	// is nothing to compact; removing the added graph (on the store — the
	// API has no remove route) leaves one tombstone, and reclaiming it
	// moves that shard's generation again without moving the answer.
	_, data = post("/v1/collections/golden/compact", "")
	var compacted struct {
		Compacted int `json:"compacted"`
	}
	if err := json.Unmarshal(data, &compacted); err != nil {
		t.Fatal(err)
	}
	if compacted.Compacted != 0 {
		t.Fatalf("compacted = %d with nothing removed, want 0", compacted.Compacted)
	}
	golden, _ := store.Collection("golden")
	if err := golden.Remove(added.IDs[0]); err != nil {
		t.Fatal(err)
	}
	_, body4 := post("/v1/collections/golden/search?k=5", q)
	st = stats()
	preGens, preInval := st.Generations, st.Cache.Invalidations
	resp, data = post("/v1/collections/golden/compact", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &compacted); err != nil {
		t.Fatal(err)
	}
	if compacted.Compacted != 1 {
		t.Fatalf("compacted = %d, want 1 (only one shard holds a tombstone)", compacted.Compacted)
	}
	_, body5 := post("/v1/collections/golden/search?k=5", q)
	st = stats()
	if reflect.DeepEqual(st.Generations, preGens) {
		t.Fatalf("compaction did not move a generation: %v", st.Generations)
	}
	if st.Cache.Invalidations != preInval+1 {
		t.Fatalf("post-compact repeat did not invalidate: %+v", st.Cache)
	}
	var s4, s5 searchResponse
	if err := json.Unmarshal(body4, &s4); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body5, &s5); err != nil {
		t.Fatal(err)
	}
	s4.ElapsedMS, s5.ElapsedMS = 0, 0
	if !reflect.DeepEqual(s4, s5) {
		t.Fatalf("compaction changed the answer:\n%s\n%s", body4, body5)
	}

	// 5. Default-engine parity: a search with no engine knob answers
	// exactly like an explicit engine=mapped one.
	defQ := queriesText(t, defColl, 2)
	_, bodyDefault := post("/v1/collections/default/search?k=5", defQ)
	_, bodyMapped := post("/v1/collections/default/search?k=5&engine=mapped", defQ)
	var defResp, mappedResp struct {
		K       int              `json:"k"`
		Engine  string           `json:"engine"`
		Results [][]searchResult `json:"results"`
	}
	if err := json.Unmarshal(bodyDefault, &defResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyMapped, &mappedResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(defResp, mappedResp) {
		t.Fatalf("default engine diverges from engine=mapped:\n%s\n%s", bodyDefault, bodyMapped)
	}
}

// TestGracefulShutdown pins the serve loop: cancelling the signal context
// must drain and return promptly without dropping an in-flight request.
func TestGracefulShutdown(t *testing.T) {
	store := graphdim.NewStore(graphdim.StoreOptions{})
	defer store.Close()
	if _, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newServer(store, 5, 30*time.Second)}
	ctx, cancel := context.WithCancel(context.Background())

	served := make(chan error, 1)
	go func() { served <- serve(ctx, srv, ln, 5*time.Second) }()

	// The server must be answering before we shut it down.
	url := "http://" + ln.Addr().String()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after context cancellation")
	}

	// The listener is closed: new connections are refused.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestRequestTimeoutCancelsSearch pins the -timeout flag: a request
// exceeding it fails with 503 instead of hanging.
func TestRequestTimeoutCancelsSearch(t *testing.T) {
	// A 1ns budget cannot complete any search.
	ts, coll := newTestServer(t, 2, time.Nanosecond)

	body := queriesText(t, coll, 2)
	resp, err := http.Post(ts.URL+"/v1/collections/default/search?engine=exact", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusServiceUnavailable)
	}
}

// TestConcurrentRequests hammers one server (hence one shared store) from
// many goroutines across search, add, and compact — meaningful under
// -race: it covers the shard fan-out racing the compaction swap.
func TestConcurrentRequests(t *testing.T) {
	ts, coll := newTestServer(t, 2, 30*time.Second)

	body := queriesText(t, coll, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				url := ts.URL + "/v1/collections/default/search"
				if w%2 == 0 {
					url = ts.URL + "/v1/collections/default/search?k=3"
				}
				resp, err := http.Post(url, "text/plain", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := dataset.Chemical(dataset.ChemConfig{N: 6, MinVertices: 8, MaxVertices: 12, Seed: 55})
		var buf bytes.Buffer
		if err := graphdim.WriteGraphs(&buf, extra); err != nil {
			errs <- err
			return
		}
		payload := buf.String()
		for i := 0; i < 3; i++ {
			resp, err := http.Post(ts.URL+"/v1/collections/default/add", "text/plain", strings.NewReader(payload))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			resp, err = http.Post(ts.URL+"/v1/collections/default/compact", "text/plain", nil)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFailQueryClientDisconnect pins the disconnect half of failQuery: a
// client that hangs up mid-request gets no response written at all (there
// is nobody to read it), rather than a 503 blamed on the server.
func TestFailQueryClientDisconnect(t *testing.T) {
	store := graphdim.NewStore(graphdim.StoreOptions{})
	defer store.Close()
	coll, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(store, 10, 30*time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the search starts
	req := httptest.NewRequest(http.MethodPost, "/v1/collections/default/search?k=3",
		strings.NewReader(queriesText(t, coll, 1))).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	if rec.Body.Len() != 0 {
		t.Fatalf("disconnected client got a %d-byte response: %s", rec.Body.Len(), rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "" {
		t.Fatalf("disconnected client got headers (Content-Type %q)", ct)
	}
	if got := s.errors.Load(); got != 1 {
		t.Fatalf("errors counter = %d, want 1 (the abandoned request still counts)", got)
	}
}

// TestFailQueryServerDeadline pins the other half: when the server's own
// -timeout expires with the client still connected, the answer is a JSON
// 503.
func TestFailQueryServerDeadline(t *testing.T) {
	store := graphdim.NewStore(graphdim.StoreOptions{})
	defer store.Close()
	coll, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(store, 10, time.Nanosecond) // no search can finish

	req := httptest.NewRequest(http.MethodPost, "/v1/collections/default/search?engine=exact",
		strings.NewReader(queriesText(t, coll, 1)))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want %d", rec.Code, http.StatusServiceUnavailable)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("503 body is not the JSON error shape: %q (err %v)", rec.Body.String(), err)
	}
}

// TestPartialAddResponseShape pins the 207 body a partially applied add
// batch answers with.
func TestPartialAddResponseShape(t *testing.T) {
	store := graphdim.NewStore(graphdim.StoreOptions{})
	defer store.Close()
	s := newServer(store, 10, 30*time.Second)
	rec := httptest.NewRecorder()
	pe := &graphdim.PartialAddError{Applied: []int{25, 27}, Total: 5, Err: fmt.Errorf("shard 1: boom")}
	s.writePartialAdd(rec, "default", pe)

	if rec.Code != http.StatusMultiStatus {
		t.Fatalf("status = %d, want %d", rec.Code, http.StatusMultiStatus)
	}
	var body struct {
		Error      string `json:"error"`
		Collection string `json:"collection"`
		AppliedIDs []int  `json:"applied_ids"`
		Applied    int    `json:"applied"`
		Total      int    `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding 207 body %q: %v", rec.Body.String(), err)
	}
	if body.Error == "" || body.Collection != "default" || !reflect.DeepEqual(body.AppliedIDs, []int{25, 27}) ||
		body.Applied != 2 || body.Total != 5 {
		t.Fatalf("207 body = %+v", body)
	}
	if !strings.Contains(body.Error, "boom") {
		t.Fatalf("error %q does not carry the cause", body.Error)
	}
}

// TestDurableRestartServesAcknowledgedWrites is the end-to-end durability
// proof at the HTTP layer: adds acknowledged with 200 by a -data server,
// no checkpoint, the process dies (nothing is flushed beyond the WAL's
// own fsyncs), and a fresh server over the same directory serves the
// writes.
func TestDurableRestartServesAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	store, err := graphdim.OpenOrCreateStore(dir, graphdim.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 10, 30*time.Second))

	extra := dataset.Chemical(dataset.ChemConfig{N: 4, MinVertices: 8, MaxVertices: 12, Seed: 91})
	var buf bytes.Buffer
	if err := graphdim.WriteGraphs(&buf, extra); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/collections/default/add", "text/plain", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var added struct {
		IDs  []int `json:"ids"`
		Size int   `json:"size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&added); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(added.IDs) != len(extra) {
		t.Fatalf("add: status %d, ids %v", resp.StatusCode, added.IDs)
	}

	// Kill the server: no graceful shutdown, no checkpoint. Close only
	// drops file handles — the acknowledged adds exist solely as fsynced
	// WAL records.
	ts.Close()
	store.Close()

	store2, err := graphdim.OpenStore(dir, graphdim.StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer store2.Close()
	ts2 := httptest.NewServer(newServer(store2, 10, 30*time.Second))
	defer ts2.Close()

	// The recovered server must rank the added graph for its own query —
	// recovery rebuilt its vector, not just its bytes.
	var qbuf bytes.Buffer
	if err := graphdim.WriteGraphs(&qbuf, extra[:1]); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts2.URL+"/v1/collections/default/search?k=40", "text/plain", strings.NewReader(qbuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Results [][]struct {
			ID       int     `json:"id"`
			Distance float64 `json:"distance"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(sr.Results) != 1 {
		t.Fatalf("search after restart: status %d, %d result rows", resp.StatusCode, len(sr.Results))
	}
	found := false
	for _, r := range sr.Results[0] {
		if r.ID == added.IDs[0] {
			found = true
			if r.Distance != 0 {
				t.Fatalf("acknowledged add %d recovered with distance %v to itself", r.ID, r.Distance)
			}
		}
	}
	if !found {
		t.Fatalf("restarted server does not rank the acknowledged add %d: %+v", added.IDs[0], sr.Results[0])
	}

	// Stats surface the WAL and the replayed writes.
	resp, err = http.Get(ts2.URL + "/v1/collections/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		NextID int `json:"next_id"`
		WAL    *struct {
			LastSeq       uint64 `json:"last_seq"`
			CheckpointSeq uint64 `json:"checkpoint_seq"`
		} `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.WAL == nil {
		t.Fatal("stats omit the wal block on a durable store")
	}
	if st.NextID != 25+len(extra) {
		t.Fatalf("next_id = %d after restart, want %d", st.NextID, 25+len(extra))
	}
}

// TestCheckpointEndpoint drives the manual checkpoint action and its
// error case on a volatile store.
func TestCheckpointEndpoint(t *testing.T) {
	// Volatile store: the action must refuse.
	tsVolatile, _ := newTestServer(t, 1, 30*time.Second)
	resp, err := http.Post(tsVolatile.URL+"/v1/collections/default/checkpoint", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint on volatile store: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	// Durable store: the action persists and truncates.
	dir := t.TempDir()
	store, err := graphdim.OpenOrCreateStore(dir, graphdim.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coll, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 10, 30*time.Second))
	defer ts.Close()

	extra := dataset.Chemical(dataset.ChemConfig{N: 2, MinVertices: 8, MaxVertices: 12, Seed: 92})
	if _, err := coll.Add(context.Background(), extra...); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/collections/default/checkpoint", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Collection  string `json:"collection"`
		Checkpoints int64  `json:"checkpoints"`
		WAL         *struct {
			LastSeq       uint64 `json:"last_seq"`
			CheckpointSeq uint64 `json:"checkpoint_seq"`
		} `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body.Checkpoints != 1 || body.WAL == nil {
		t.Fatalf("checkpoint response: status %d, body %+v", resp.StatusCode, body)
	}
	if body.WAL.CheckpointSeq != body.WAL.LastSeq || body.WAL.LastSeq == 0 {
		t.Fatalf("checkpoint did not cover the log: %+v", body.WAL)
	}

	// /stats reports the checkpoint counters for -data stores.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats["data_dir"] != dir || stats["checkpoints"] != float64(1) {
		t.Fatalf("/stats checkpoint counters: data_dir=%v checkpoints=%v", stats["data_dir"], stats["checkpoints"])
	}
}
