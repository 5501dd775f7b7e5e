package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/graphdim"
	"repro/internal/dataset"
)

// ndjsonBody renders graphs in the ingest line format.
func ndjsonBody(t *testing.T, gs []*graphdim.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	for _, g := range gs {
		line := ingestGraph{Labels: make([]int, g.N())}
		for v := 0; v < g.N(); v++ {
			line.Labels[v] = int(g.VertexLabel(v))
		}
		for _, e := range g.Edges() {
			line.Edges = append(line.Edges, [3]int{e.U, e.V, int(e.Label)})
		}
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatalf("marshal ingest line: %v", err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.String()
}

func extraGraphs(t *testing.T, n, seed int) []*graphdim.Graph {
	t.Helper()
	return dataset.Chemical(dataset.ChemConfig{N: n, MinVertices: 8, MaxVertices: 12, Seed: int64(seed)})
}

// TestIngestStreamsPerBatchAcks drives the happy path: 10 graphs in
// batches of 4 must produce acks [4 4 2] with contiguous ids and a done
// summary, and the ingested graphs must be searchable.
func TestIngestStreamsPerBatchAcks(t *testing.T) {
	ts, coll := newTestServer(t, 2, 30*time.Second)
	seed := coll.Size()
	extra := extraGraphs(t, 10, 101)

	resp, err := http.Post(ts.URL+"/v1/collections/default/ingest?batch=4",
		"application/x-ndjson", strings.NewReader(ndjsonBody(t, extra)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var acks []ingestAck
	var summary ingestSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"done"`) {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatalf("summary line %q: %v", sc.Text(), err)
			}
			continue
		}
		var ack ingestAck
		if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
			t.Fatalf("ack line %q: %v", sc.Text(), err)
		}
		acks = append(acks, ack)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	wantSizes := []int{4, 4, 2}
	if len(acks) != len(wantSizes) {
		t.Fatalf("got %d acks %+v, want %d", len(acks), acks, len(wantSizes))
	}
	next := seed
	for i, ack := range acks {
		if ack.Batch != i+1 || ack.Applied != wantSizes[i] || ack.Error != "" {
			t.Fatalf("ack %d = %+v, want batch=%d applied=%d", i, ack, i+1, wantSizes[i])
		}
		if ack.FirstID != next || ack.LastID != next+wantSizes[i]-1 {
			t.Fatalf("ack %d ids [%d,%d], want [%d,%d]", i, ack.FirstID, ack.LastID, next, next+wantSizes[i]-1)
		}
		next += wantSizes[i]
	}
	if !summary.Done || summary.Applied != 10 || summary.Batches != 3 || summary.Size != seed+10 {
		t.Fatalf("summary = %+v, want done applied=10 batches=3 size=%d", summary, seed+10)
	}
	if coll.Size() != seed+10 {
		t.Fatalf("collection size = %d, want %d", coll.Size(), seed+10)
	}

	// The ingested graphs are live: one of them must rank itself at
	// distance zero.
	var qbuf bytes.Buffer
	if err := graphdim.WriteGraphs(&qbuf, extra[:1]); err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Post(ts.URL+"/v1/collections/default/search?k="+strconv.Itoa(seed+10), "text/plain", strings.NewReader(qbuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var out searchResponse
	if err := json.NewDecoder(sresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range out.Results[0] {
		if r.ID == seed && r.Distance == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested graph %d not found at distance 0: %+v", seed, out.Results[0])
	}
}

// TestIngestRejectsBadInput covers the error surface: bad method, bad
// batch parameter, malformed first line (clean 400), and a malformed
// line after committed batches (in-band error, prefix stays).
func TestIngestRejectsBadInput(t *testing.T) {
	ts, coll := newTestServer(t, 1, 30*time.Second)
	seed := coll.Size()

	get, err := http.Get(ts.URL + "/v1/collections/default/ingest")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: status %d, want 405", get.StatusCode)
	}

	for _, tc := range []struct{ name, url, body string }{
		{"bad batch", "/v1/collections/default/ingest?batch=zero", `{"labels":[1]}`},
		{"negative batch", "/v1/collections/default/ingest?batch=-4", `{"labels":[1]}`},
		{"malformed json", "/v1/collections/default/ingest", `{"labels":`},
		{"bad edge", "/v1/collections/default/ingest", `{"labels":[1,2],"edges":[[0,5,0]]}`},
		{"empty graph", "/v1/collections/default/ingest", `{"labels":[]}`},
	} {
		resp, err := http.Post(ts.URL+tc.url, "application/x-ndjson", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Empty body is a valid no-op stream.
	resp, err := http.Post(ts.URL+"/v1/collections/default/ingest", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var summary ingestSummary
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !summary.Done || summary.Batches != 0 {
		t.Fatalf("empty ingest: status %d summary %+v", resp.StatusCode, summary)
	}

	// A bad line after a committed batch: the batch's ack arrives, then
	// an in-band error summary; the committed prefix stays.
	body := ndjsonBody(t, extraGraphs(t, 2, 55)) + "{\"labels\":[-1]}\n"
	resp, err = http.Post(ts.URL+"/v1/collections/default/ingest?batch=2", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream failure: status %d, want 200 (error is in-band)", resp.StatusCode)
	}
	lines, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(strings.TrimSpace(string(lines)), "\n")
	if len(parts) != 2 {
		t.Fatalf("got %d response lines %q, want ack + error summary", len(parts), parts)
	}
	var ack ingestAck
	if err := json.Unmarshal([]byte(parts[0]), &ack); err != nil || ack.Applied != 2 {
		t.Fatalf("first line %q: ack err=%v applied=%d", parts[0], err, ack.Applied)
	}
	if err := json.Unmarshal([]byte(parts[1]), &summary); err != nil || summary.Error == "" || summary.Applied != 2 {
		t.Fatalf("second line %q: summary err=%v %+v", parts[1], err, summary)
	}
	if coll.Size() != seed+2 {
		t.Fatalf("size = %d, want committed prefix %d", coll.Size(), seed+2)
	}
}

// TestIngestCrashRecoveryAckedPrefix is the HTTP-level durability proof
// for ingest: batches acknowledged over the stream survive a kill -9
// (close without checkpoint); the batch still in flight when the client
// died does not. Recovery replays exactly the acked prefix.
func TestIngestCrashRecoveryAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	store, err := graphdim.OpenOrCreateStore(dir, graphdim.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 10, 30*time.Second))
	coll, _ := store.Collection("default")
	seed := coll.Size()

	extra := extraGraphs(t, 6, 77)
	lines := strings.Split(strings.TrimSpace(ndjsonBody(t, extra)), "\n")

	// Stream two 2-graph batches, read their acks, then die mid-stream:
	// the request body breaks with half of batch 3 sent.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/collections/default/ingest?batch=2", pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, line := range lines[:4] {
			io.WriteString(pw, line+"\n")
		}
	}()
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	acked := 0
	for acked < 4 && sc.Scan() {
		var ack ingestAck
		if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
			t.Fatalf("ack line %q: %v", sc.Text(), err)
		}
		if ack.Error != "" {
			t.Fatalf("unexpected in-band error: %+v", ack)
		}
		acked += ack.Applied
	}
	if acked != 4 {
		t.Fatalf("acked %d graphs before crash, want 4", acked)
	}
	// Half a line of batch 3, then the client "crashes".
	io.WriteString(pw, lines[4][:len(lines[4])/2])
	pw.CloseWithError(fmt.Errorf("client process died"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Kill the server: no graceful shutdown, no checkpoint — the acked
	// batches exist only as fsynced WAL records.
	ts.Close()
	store.Close()

	store2, err := graphdim.OpenStore(dir, graphdim.StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer store2.Close()
	coll2, ok := store2.Collection("default")
	if !ok {
		t.Fatal("collection lost")
	}
	if coll2.Size() != seed+4 {
		t.Fatalf("recovered size = %d, want exactly the acked prefix %d", coll2.Size(), seed+4)
	}
	// The acked graphs are live and searchable after recovery.
	res, err := coll2.Search(t.Context(), extra[0], graphdim.SearchOptions{K: seed + 4})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Results {
		if r.ID == seed && r.Distance == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("acked ingested graph %d not recovered: %+v", seed, res.Results)
	}
}

// TestAdmissionLanesShedIndependently saturates one lane and checks the
// other keeps serving: reads shed with a parseable 429 while writes
// land, and vice versa.
func TestAdmissionLanesShedIndependently(t *testing.T) {
	store := graphdim.NewStore(graphdim.StoreOptions{})
	t.Cleanup(store.Close)
	coll, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newServerCfg(store, serverConfig{defaultK: 10, timeout: 30 * time.Second, maxReads: 1, maxWrites: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	query := queriesText(t, coll, 1)
	addBody := func(seed int) string {
		var buf bytes.Buffer
		if err := graphdim.WriteGraphs(&buf, extraGraphs(t, 1, seed)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Saturate the read lane the way a slow scan would: the slot is held
	// for the duration.
	readGate := s.lanes("default").read
	if !readGate.TryEnter() {
		t.Fatal("could not saturate read lane")
	}
	resp := post("/v1/collections/default/search", query)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("search under full read lane: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Fatalf("Retry-After %q is not a parseable positive integer", ra)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil || errBody.Error == "" {
		t.Fatalf("429 body not the JSON error shape: %v %+v", err, errBody)
	}
	resp.Body.Close()

	// Writes still complete while reads shed — the lanes are separate.
	resp = post("/v1/collections/default/add", addBody(201))
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("add under full READ lane: status %d body %s, want 200", resp.StatusCode, body)
	}
	resp.Body.Close()
	// Ingest rides the write lane too.
	resp = post("/v1/collections/default/ingest", ndjsonBody(t, extraGraphs(t, 1, 202)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest under full READ lane: status %d, want 200", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body) // EOF = the handler returned and left the write lane
	resp.Body.Close()

	readGate.Leave()
	resp = post("/v1/collections/default/search", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search after lane freed: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// Now the write lane: adds and ingests shed, searches keep landing.
	writeGate := s.lanes("default").write
	if !writeGate.TryEnter() {
		t.Fatal("could not saturate write lane")
	}
	for _, path := range []string{"/v1/collections/default/add", "/v1/collections/default/ingest"} {
		body := addBody(203)
		if strings.HasSuffix(path, "ingest") {
			body = ndjsonBody(t, extraGraphs(t, 1, 204))
		}
		resp = post(path, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s under full write lane: status %d, want 429", path, resp.StatusCode)
		}
		if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
			t.Fatalf("%s: Retry-After %q not parseable", path, resp.Header.Get("Retry-After"))
		}
		resp.Body.Close()
	}
	resp = post("/v1/collections/default/search", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search under full WRITE lane: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	writeGate.Leave()

	if got := readGate.Rejects(); got != 1 {
		t.Fatalf("read lane rejects = %d, want 1", got)
	}
	if got := writeGate.Rejects(); got != 2 {
		t.Fatalf("write lane rejects = %d, want 2", got)
	}
}

// TestMetricsEndpointShape is the golden test for /metrics: after a
// known request mix the series set must match exactly — names and
// labels are the contract dashboards depend on — and the values must
// add up.
func TestMetricsEndpointShape(t *testing.T) {
	store := graphdim.NewStore(graphdim.StoreOptions{})
	t.Cleanup(store.Close)
	coll, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{
		Shards: 1,
		Cache:  graphdim.CacheOptions{MaxEntries: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServerCfg(store, serverConfig{defaultK: 10, timeout: 30 * time.Second, maxReads: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Known mix: 2 searches (one will be repeated for a cache hit), 1
	// add, 1 shed search.
	query := queriesText(t, coll, 1)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/collections/default/search", "text/plain", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d", i, resp.StatusCode)
		}
	}
	var abuf bytes.Buffer
	if err := graphdim.WriteGraphs(&abuf, extraGraphs(t, 1, 301)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/collections/default/add", "text/plain", strings.NewReader(abuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gate := s.lanes("default").read
	gate.TryEnter()
	resp, err = http.Post(ts.URL+"/v1/collections/default/search", "text/plain", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed search: status %d, want 429", resp.StatusCode)
	}
	gate.Leave()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// The series-name set is the golden contract. Values are checked
	// separately where they are deterministic.
	var series []string
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		series = append(series, name)
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: value %q not a float", name, val)
		}
		values[name] = f
	}
	sort.Strings(series)
	wantSeries := []string{
		`gserve_admission_rejected_total{collection="default",lane="read"}`,
		`gserve_cache_hit_ratio`,
		`gserve_http_request_duration_seconds_count{endpoint="add"}`,
		`gserve_http_request_duration_seconds_count{endpoint="search"}`,
		`gserve_http_request_duration_seconds_sum{endpoint="add"}`,
		`gserve_http_request_duration_seconds_sum{endpoint="search"}`,
		`gserve_http_request_duration_seconds{endpoint="add",quantile="0.5"}`,
		`gserve_http_request_duration_seconds{endpoint="add",quantile="0.99"}`,
		`gserve_http_request_duration_seconds{endpoint="add",quantile="0.999"}`,
		`gserve_http_request_duration_seconds{endpoint="search",quantile="0.5"}`,
		`gserve_http_request_duration_seconds{endpoint="search",quantile="0.99"}`,
		`gserve_http_request_duration_seconds{endpoint="search",quantile="0.999"}`,
		`gserve_http_requests_total{code="200",endpoint="add"}`,
		`gserve_http_requests_total{code="200",endpoint="search"}`,
		`gserve_http_requests_total{code="429",endpoint="search"}`,
		`gserve_wal_fsync_duration_seconds_count`,
		`gserve_wal_fsync_duration_seconds_sum`,
		`gserve_wal_fsync_duration_seconds{quantile="0.5"}`,
		`gserve_wal_fsync_duration_seconds{quantile="0.99"}`,
		`gserve_wal_fsync_duration_seconds{quantile="0.999"}`,
		`gserve_wal_group_commit_records_count`,
		`gserve_wal_group_commit_records_sum`,
		`gserve_wal_group_commit_records{quantile="0.5"}`,
		`gserve_wal_group_commit_records{quantile="0.99"}`,
		`gserve_wal_group_commit_records{quantile="0.999"}`,
		`gserve_wal_max_batch_records`,
	}
	sort.Strings(wantSeries)
	if !reflect.DeepEqual(series, wantSeries) {
		t.Fatalf("series set drifted:\n got %v\nwant %v", series, wantSeries)
	}

	// Value sanity on the deterministic counters.
	checks := map[string]float64{
		`gserve_http_requests_total{code="200",endpoint="search"}`:          2,
		`gserve_http_requests_total{code="200",endpoint="add"}`:             1,
		`gserve_http_requests_total{code="429",endpoint="search"}`:          1,
		`gserve_admission_rejected_total{collection="default",lane="read"}`: 1,
		`gserve_http_request_duration_seconds_count{endpoint="search"}`:     3,
		`gserve_http_request_duration_seconds_count{endpoint="add"}`:        1,
	}
	for name, wantV := range checks {
		if values[name] != wantV {
			t.Fatalf("%s = %v, want %v", name, values[name], wantV)
		}
	}
	if r := values["gserve_cache_hit_ratio"]; r <= 0 || r > 1 {
		t.Fatalf("cache_hit_ratio = %v, want in (0,1] after a repeated query", r)
	}
	if v := values[`gserve_http_request_duration_seconds{endpoint="search",quantile="0.5"}`]; v <= 0 {
		t.Fatalf("search p50 = %v, want > 0", v)
	}

	// The quantile labels follow the Prometheus summary convention.
	if !regexp.MustCompile(`quantile="0\.999"`).Match(raw) {
		t.Fatalf("no p999 series in output")
	}
}

// TestIngestMidStreamFailureReportsInBand drops the collection between
// two batches of an in-flight ingest stream. The status line is long
// gone (200 with batch 1's ack already flushed), so the failure must
// arrive in-band: a summary line with the error and the exact durable
// prefix, not a hung or silently truncated stream.
func TestIngestMidStreamFailureReportsInBand(t *testing.T) {
	store, err := graphdim.OpenOrCreateStore(t.TempDir(), graphdim.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	if _, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(store, 10, 30*time.Second))
	t.Cleanup(ts.Close)

	lines := strings.Split(strings.TrimSpace(ndjsonBody(t, extraGraphs(t, 4, 83))), "\n")
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/collections/default/ingest?batch=2", pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, line := range lines[:2] {
			io.WriteString(pw, line+"\n")
		}
	}()
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (committed at first ack)", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no ack for batch 1")
	}
	var ack ingestAck
	if err := json.Unmarshal(sc.Bytes(), &ack); err != nil || ack.Applied != 2 || ack.Error != "" {
		t.Fatalf("batch 1 ack = %q (err %v), want applied=2", sc.Text(), err)
	}

	// Drop the collection out from under the stream: its WAL closes, so
	// the next batch's append fails with a non-partial error.
	if err := store.Drop("default"); err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, line := range lines[2:] {
			io.WriteString(pw, line+"\n")
		}
		pw.Close()
	}()

	var sum ingestSummary
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
			t.Fatalf("trailer line %q: %v", sc.Text(), err)
		}
	}
	if sc.Err() != nil {
		t.Fatalf("reading stream: %v", sc.Err())
	}
	if sum.Error == "" || sum.Done {
		t.Fatalf("summary = %+v, want in-band error and done=false", sum)
	}
	if sum.Batches != 2 || sum.Applied != 2 {
		t.Fatalf("summary = %+v, want batches=2 applied=2 (only batch 1 durable)", sum)
	}
}

// TestMetricsWALObserverAndMethodCheck covers the two metrics paths no
// other test reaches: the WAL sync observer feeding the fsync and
// group-commit summaries, and /metrics rejecting non-GET methods.
func TestMetricsWALObserverAndMethodCheck(t *testing.T) {
	store := graphdim.NewStore(graphdim.StoreOptions{})
	t.Cleanup(store.Close)
	if _, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	m := newServerMetrics()
	s := newServerCfg(store, serverConfig{defaultK: 10, timeout: time.Second, metrics: m})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Feed the observer the way a durable store's group commit would.
	m.walObserver()(3*time.Millisecond, 4)

	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gserve_wal_fsync_duration_seconds_count 1",
		"gserve_wal_fsync_duration_seconds_sum 0.003",
		"gserve_wal_group_commit_records_count 1",
		"gserve_wal_group_commit_records_sum 4",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
