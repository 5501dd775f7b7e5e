package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/graphdim"
	"repro/internal/dataset"
)

// replTestHeartbeat keeps tail streams chatty so tests converge fast.
const replTestHeartbeat = 20 * time.Millisecond

// newPrimaryServer opens (or reopens) a durable store in dir, seeds the
// default collection on first open, and serves it with fast replication
// heartbeats.
func newPrimaryServer(t testing.TB, dir string) (*httptest.Server, *server, *graphdim.Store) {
	t.Helper()
	store, err := graphdim.OpenOrCreateStore(dir, graphdim.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenOrCreateStore: %v", err)
	}
	if _, ok := store.Collection("default"); !ok {
		if _, err := store.CreateFromIndex("default", buildTestIndex(t), graphdim.CollectionOptions{Shards: 2}); err != nil {
			t.Fatalf("CreateFromIndex: %v", err)
		}
	}
	s := newServerCfg(store, serverConfig{
		defaultK: 10, timeout: 30 * time.Second,
		replHeartbeat: replTestHeartbeat,
	})
	return httptest.NewServer(s), s, store
}

// followerProc is one follower "process": killing it closes everything
// the way a crash would (minus the fsynced mirror, which survives).
type followerProc struct {
	ts     *httptest.Server
	s      *server
	store  *graphdim.Store
	cancel context.CancelFunc
}

// startFollowerProc bootstraps dir from the primary if needed, opens the
// store, and starts the tailers — the in-process equivalent of
// `gserve -data dir -follow primaryURL`.
func startFollowerProc(t testing.TB, primaryURL, dir string) *followerProc {
	t.Helper()
	if _, err := bootstrapFromPrimary(nil, primaryURL, dir); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	store, err := graphdim.OpenStore(dir, graphdim.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore(follower): %v", err)
	}
	id, err := loadFollowerID(dir)
	if err != nil {
		t.Fatalf("loadFollowerID: %v", err)
	}
	s := newServerCfg(store, serverConfig{
		defaultK: 10, timeout: 30 * time.Second,
		follow: primaryURL, followerID: id, replHeartbeat: replTestHeartbeat,
	})
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.startFollower(ctx); err != nil {
		cancel()
		t.Fatalf("startFollower: %v", err)
	}
	return &followerProc{ts: httptest.NewServer(s), s: s, store: store, cancel: cancel}
}

func (fp *followerProc) kill() {
	fp.cancel()
	fp.s.follower.wait()
	fp.ts.Close()
	fp.store.Close()
}

func waitUntil(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// addGraphsHTTP posts graphs to the add endpoint and returns the ids.
func addGraphsHTTP(t *testing.T, baseURL string, gs []*graphdim.Graph) []int {
	t.Helper()
	var buf bytes.Buffer
	if err := graphdim.WriteGraphs(&buf, gs); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/collections/default/add", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		IDs []int `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: status %d", resp.StatusCode)
	}
	return out.IDs
}

// searchResults runs one search and returns the decoded result rows
// plus the freshness header.
func searchResults(t *testing.T, baseURL, query string, params string) ([][]searchResult, string, int) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/collections/default/search?"+params, "text/plain", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fresh := resp.Header.Get("X-Graphdim-Freshness")
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fresh, resp.StatusCode
	}
	var out struct {
		Results [][]searchResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Results, fresh, resp.StatusCode
}

// TestReplicationFollowerConvergesAndRedirects is the happy path end to
// end over real HTTP: snapshot bootstrap, WAL tailing, bit-identical
// follower reads, the freshness token, 307 write redirects, and the
// role surfaces in healthz and stats.
func TestReplicationFollowerConvergesAndRedirects(t *testing.T) {
	pts, _, pstore := newPrimaryServer(t, t.TempDir())
	defer pts.Close()
	defer pstore.Close()
	pc, _ := pstore.Collection("default")

	extra := dataset.Chemical(dataset.ChemConfig{N: 6, MinVertices: 8, MaxVertices: 12, Seed: 41})
	ids := addGraphsHTTP(t, pts.URL, extra)

	fp := startFollowerProc(t, pts.URL, t.TempDir())
	defer fp.kill()
	fc, ok := fp.store.Collection("default")
	if !ok {
		t.Fatal("follower store has no default collection after bootstrap")
	}
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool {
		return fc.AppliedSeq() >= pc.AppliedSeq()
	})

	// Identical reads for the replicated prefix, including the graphs
	// added after the snapshot was cut.
	var qbuf bytes.Buffer
	if err := graphdim.WriteGraphs(&qbuf, extra[:2]); err != nil {
		t.Fatal(err)
	}
	query := qbuf.String()
	pr, pfresh, pcode := searchResults(t, pts.URL, query, "k=40")
	fr, ffresh, fcode := searchResults(t, fp.ts.URL, query, "k=40")
	if pcode != 200 || fcode != 200 {
		t.Fatalf("search: primary %d, follower %d", pcode, fcode)
	}
	if !reflect.DeepEqual(pr, fr) {
		t.Fatalf("follower results diverge from primary:\nprimary:  %v\nfollower: %v", pr, fr)
	}
	if pfresh == "" || ffresh == "" {
		t.Fatalf("missing freshness headers: primary %q follower %q", pfresh, ffresh)
	}
	// The token's applied half must compare: the follower has caught up,
	// so passing the primary's token back to the follower succeeds.
	if _, _, code := searchResults(t, fp.ts.URL, query, "k=5&min_freshness="+pfresh); code != 200 {
		t.Fatalf("caught-up follower rejected min_freshness=%s with %d", pfresh, code)
	}

	// Writes answer 307 with the primary as the target...
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Post(fp.ts.URL+"/v1/collections/default/add", "text/plain", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower add: status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, pts.URL) {
		t.Fatalf("Location %q does not point at the primary %s", loc, pts.URL)
	}
	// ...and a standard client follows them transparently (307 preserves
	// method and body), so the write lands on the primary.
	before := pc.Size()
	var abuf bytes.Buffer
	if err := graphdim.WriteGraphs(&abuf, extra[2:3]); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(fp.ts.URL+"/v1/collections/default/add", "text/plain", &abuf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pc.Size() != before+1 {
		t.Fatalf("redirected add: status %d, primary size %d (was %d)", resp.StatusCode, pc.Size(), before)
	}

	// Role surfaces: follower healthz and the primary's follower table.
	var health map[string]any
	resp, err = http.Get(fp.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["role"] != "follower" || health["primary"] != pts.URL {
		t.Fatalf("follower healthz = %v", health)
	}
	waitUntil(t, 10*time.Second, "primary to see the follower's ack", func() bool {
		return pc.Stats().WAL.Retained == 1
	})
	var stats struct {
		Replication *replicationStatsJSON `json:"replication"`
	}
	resp, err = http.Get(pts.URL + "/v1/collections/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Replication == nil || stats.Replication.Role != "primary" || len(stats.Replication.Followers) != 1 {
		t.Fatalf("primary replication stats = %+v", stats.Replication)
	}
	_ = ids
}

// TestReplicationFreshnessGate pins the 412 contract: a follower that
// has not replayed up to the requested sequence refuses the read and
// names its own position, and serves it once caught up.
func TestReplicationFreshnessGate(t *testing.T) {
	pts, _, pstore := newPrimaryServer(t, t.TempDir())
	defer pts.Close()
	defer pstore.Close()
	pc, _ := pstore.Collection("default")

	// Bootstrap the follower image, then write on the primary while the
	// follower's tailers are deliberately NOT running: it is durably
	// behind.
	fdir := t.TempDir()
	if _, err := bootstrapFromPrimary(nil, pts.URL, fdir); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	extra := dataset.Chemical(dataset.ChemConfig{N: 3, MinVertices: 8, MaxVertices: 12, Seed: 43})
	addGraphsHTTP(t, pts.URL, extra)

	fstore, err := graphdim.OpenStore(fdir, graphdim.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	id, err := loadFollowerID(fdir)
	if err != nil {
		t.Fatal(err)
	}
	fs := newServerCfg(fstore, serverConfig{
		defaultK: 10, timeout: 30 * time.Second,
		follow: pts.URL, followerID: id, replHeartbeat: replTestHeartbeat,
	})
	fts := httptest.NewServer(fs)
	defer fts.Close()

	var qbuf bytes.Buffer
	if err := graphdim.WriteGraphs(&qbuf, extra[:1]); err != nil {
		t.Fatal(err)
	}
	query := qbuf.String()
	want := pc.AppliedSeq()

	_, fresh, code := searchResults(t, fts.URL, query, "k=5&min_freshness="+strconv.FormatUint(want, 10))
	if code != http.StatusPreconditionFailed {
		t.Fatalf("lagging follower answered %d to min_freshness=%d, want 412", code, want)
	}
	// The 412 carries the follower's current token so clients can see
	// how far behind it is.
	if fresh == "" {
		t.Fatal("412 response missing the freshness header")
	}
	got, err := strconv.ParseUint(fresh[:strings.IndexByte(fresh, ':')], 10, 64)
	if err != nil || got >= want {
		t.Fatalf("412 freshness token %q should carry an applied sequence below %d", fresh, want)
	}
	// Without the gate the stale read is allowed (eventual consistency
	// is the default), and a malformed bound is a 400.
	if _, _, code := searchResults(t, fts.URL, query, "k=5"); code != 200 {
		t.Fatalf("ungated stale read answered %d", code)
	}
	if _, _, code := searchResults(t, fts.URL, query, "k=5&min_freshness=nope"); code != http.StatusBadRequest {
		t.Fatalf("malformed min_freshness answered %d, want 400", code)
	}

	// Start the tailers; the same gated request must succeed once the
	// follower has replayed past the bound.
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); fs.follower.wait() }()
	if err := fs.startFollower(ctx); err != nil {
		t.Fatal(err)
	}
	fc, _ := fstore.Collection("default")
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool { return fc.AppliedSeq() >= want })
	if _, _, code := searchResults(t, fts.URL, query, "k=5&min_freshness="+strconv.FormatUint(want, 10)); code != 200 {
		t.Fatalf("caught-up follower answered %d to the same gate", code)
	}
}

// TestReplicationKillResumeProperty is the randomized kill-and-resume
// property test: a follower is killed at random points mid-stream —
// sometimes with its mirrored log tail torn mid-frame, as a crash
// between write and fsync would leave it — restarted over the same
// directory, and must always converge to reads bit-identical with the
// primary without ever re-bootstrapping.
func TestReplicationKillResumeProperty(t *testing.T) {
	seed := int64(0xC0FFEE)
	if v := os.Getenv("REPL_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("REPL_SEED: %v", err)
		}
		seed = n
	}
	t.Logf("seed %d (override with REPL_SEED)", seed)
	rng := rand.New(rand.NewSource(seed))

	pts, _, pstore := newPrimaryServer(t, t.TempDir())
	defer pts.Close()
	defer pstore.Close()
	pc, _ := pstore.Collection("default")
	fdir := t.TempDir()

	var added []int
	iterations := 5
	for i := 0; i < iterations; i++ {
		// Random write batch on the primary: adds, sometimes a remove.
		n := 1 + rng.Intn(4)
		batch := dataset.Chemical(dataset.ChemConfig{N: n, MinVertices: 8, MaxVertices: 12, Seed: int64(100 + i)})
		ids, err := pc.Add(context.Background(), batch...)
		if err != nil {
			t.Fatalf("iter %d: Add: %v", i, err)
		}
		added = append(added, ids...)
		if len(added) > 2 && rng.Intn(2) == 0 {
			victim := added[rng.Intn(len(added))]
			// Removing an already-removed id errors; tolerate it.
			pc.Remove(victim)
		}

		fp := startFollowerProc(t, pts.URL, fdir)
		if last := i == iterations-1; last {
			// Final life: let it fully converge.
			waitUntil(t, 15*time.Second, "final follower catch-up", func() bool {
				fc, _ := fp.store.Collection("default")
				return fc.AppliedSeq() >= pc.AppliedSeq()
			})
			assertFollowerMatchesPrimary(t, pts.URL, fp.ts.URL, pc)
			if fp.s.follower.bootstrapNeeded() {
				t.Fatal("follower latched needsBootstrap; retention failed to protect it")
			}
			fp.kill()
			break
		}
		// Kill mid-stream at a random point.
		time.Sleep(time.Duration(rng.Intn(60)) * time.Millisecond)
		fp.kill()
		if rng.Intn(2) == 0 {
			tearWALTail(t, rng, filepath.Join(fdir, "default", "wal"))
		}
	}
}

// tearWALTail chops 1–16 bytes off the newest WAL segment, simulating a
// crash that tore the last frame mid-write. Open-time recovery must
// truncate the torn frame and resume from the surviving prefix.
func tearWALTail(t *testing.T, rng *rand.Rand, walDir string) {
	t.Helper()
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatalf("reading wal dir: %v", err)
	}
	newest := ""
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".wal") && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		return
	}
	path := filepath.Join(walDir, newest)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const headerLen = 8 // "GWALSEG1"
	if fi.Size() <= headerLen {
		return
	}
	cut := int64(1 + rng.Intn(16))
	if fi.Size()-cut < headerLen {
		cut = fi.Size() - headerLen
	}
	if err := os.Truncate(path, fi.Size()-cut); err != nil {
		t.Fatalf("tearing %s: %v", path, err)
	}
	t.Logf("tore %d bytes off %s", cut, newest)
}

// assertFollowerMatchesPrimary compares full k=50 result lists for a
// spread of query graphs over HTTP — distances included, so the
// follower's state must be bit-identical, not merely similar.
func assertFollowerMatchesPrimary(t *testing.T, primaryURL, followerURL string, pc *graphdim.Collection) {
	t.Helper()
	var queries []*graphdim.Graph
	for id := 0; len(queries) < 5 && id < pc.Stats().NextID; id++ {
		if g, ok := pc.Graph(id); ok {
			queries = append(queries, g)
		}
	}
	var buf bytes.Buffer
	if err := graphdim.WriteGraphs(&buf, queries); err != nil {
		t.Fatal(err)
	}
	query := buf.String()
	pr, _, pcode := searchResults(t, primaryURL, query, "k=50&engine=verified")
	fr, _, fcode := searchResults(t, followerURL, query, "k=50&engine=verified")
	if pcode != 200 || fcode != 200 {
		t.Fatalf("search: primary %d, follower %d", pcode, fcode)
	}
	if !reflect.DeepEqual(pr, fr) {
		t.Fatalf("follower diverged from primary after kill-and-resume:\nprimary:  %v\nfollower: %v", pr, fr)
	}
}
