// Command gserve serves top-k graph similarity queries over HTTP — the
// online half of the paper's offline/online split, grown into a multi-
// collection store: dspm builds an index once (expensive: mining, MCS
// matrix, DSPM), gserve serves it from a graphdim.Store, optionally split
// across -shards parallel shards, behind a versioned REST API.
// Collections grow online (/add maps new graphs into the fixed dimension
// space without re-mining). A collection keeps the one dimension set it
// was created with; its stats report the stale ratio, the operator's
// signal to create a fresh collection from the current graphs.
//
// The production deployment runs against a -data directory: the store is
// opened (or initialized) there, every accepted add and remove is
// write-ahead logged and fsynced before it is acknowledged, checkpoints
// run every -checkpoint-every (plus on graceful shutdown and on demand
// via the checkpoint action), and a restart — clean or kill -9 —
// recovers exactly the acknowledged writes by replaying the log tail
// over the last checkpoint. -index seeds the default collection into a
// fresh -data store (or serves alone, volatile, without -data).
//
// Usage:
//
//	dspm -gen 200 -out index.gdx
//	gserve -data /var/lib/gserve -index index.gdx -addr :8080 \
//	  -shards 4 -checkpoint-every 5m
//
// The /v1 API (all request and error bodies are JSON except graph
// payloads, which use the standard text format "t # id" / "v id label" /
// "e u v label"):
//
//	GET    /v1/collections                   list collections
//	POST   /v1/collections?name=N&shards=S   create a collection from the
//	       graphs in the body; optional build knobs: dimensions, tau,
//	       algorithm (dspm | dspmap), k (default result count),
//	       cache_entries and cache_bytes (query-result cache bounds;
//	       omitted or 0 = no cache)
//	DELETE /v1/collections/{name}            drop a collection
//	POST   /v1/collections/{name}/search     query graphs in the body; knobs:
//	       k, engine (mapped | verified | exact), factor, maxcand
//	POST   /v1/collections/{name}/add        map graphs into the collection;
//	       a partially applied batch answers 207 with the committed ids
//	POST   /v1/collections/{name}/query      run a composable pipeline: a
//	       JSON body {"stages":[{"filter":{...}},{"search":{...}},
//	       {"group_by":{...}}]} of filter → search → aggregate stages;
//	       declarative filters push down into posting intersections and
//	       stay cacheable (see internal/pipeline); the gq CLI runs the
//	       same documents offline
//	POST   /v1/collections/{name}/ingest     bulk-load NDJSON graphs, one
//	       {"labels":[...],"edges":[[u,v,label],...]} per line, applied in
//	       ?batch=-sized groups (default 256) at one WAL fsync per group;
//	       the response streams one ack line per committed batch
//	GET    /v1/collections/{name}/stats      graphdim.CollectionStats under
//	       the JSON names that type declares (per-shard sizes, stale
//	       ratios, compaction counters, shard generations, query-cache
//	       and WAL counters) plus the replication block
//	POST   /v1/collections/{name}/compact    reclaim tombstoned slots now
//	       (same dimensions, same rankings; never re-selects)
//	POST   /v1/collections/{name}/checkpoint persist the store and truncate
//	       replayed WAL segments (-data stores only)
//	GET    /healthz                          liveness probe
//	GET    /stats                            process-wide counters and the
//	       same per-collection stats, keyed by name
//	GET    /metrics                          Prometheus text format:
//	       per-endpoint latency quantiles and request counts, WAL fsync
//	       timings, group-commit batch sizes, admission rejects, cache
//	       hit ratio
//
// Admission control bounds the in-flight requests per collection in two
// independent lanes — reads (search/query) via -max-inflight-reads
// (default 256) and writes (add/ingest) via -max-inflight-writes
// (default 64; negative = unlimited). Requests beyond the lane width
// are shed immediately with 429 and a Retry-After header, before the
// body is read, so overload degrades into fast rejections rather than
// queueing collapse. cmd/gload drives this surface with an open-loop
// mixed workload and reports the latency distribution.
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections, waits up to -grace for in-flight requests, checkpoints a
// -data store, then exits. -timeout
// bounds each request twice over: the connection's read/write deadlines
// cover the body transfer, and the request context cancels the underlying
// Search — exact and verified engines return promptly. Collection
// creation (an offline build), compaction, and checkpoints are exempt
// from -timeout and bounded only by the client's patience.
//
// Example:
//
//	curl -s --data-binary @queries.graphs \
//	  'localhost:8080/v1/collections/default/search?k=5&engine=verified&factor=4'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/graphdim"
	"repro/internal/pool"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gserve: ")
	var (
		index     = flag.String("index", "", "seed index file built by dspm (a v4 segment); required without -data, with -data it seeds the default collection if missing")
		data      = flag.String("data", "", "durable store directory (opened or created): every add/remove is write-ahead logged and survives a crash; without it online writes are volatile")
		ckpEvery  = flag.Duration("checkpoint-every", 5*time.Minute, "periodic checkpoint interval for -data stores (0 = only manual /checkpoint actions and the shutdown checkpoint)")
		addr      = flag.String("addr", ":8080", "listen address")
		k         = flag.Int("k", 10, "default number of results per query")
		shards    = flag.Int("shards", 1, "shards for the default collection")
		collName  = flag.String("collection", "default", "name of the collection -index seeds")
		workers   = flag.Int("workers", 0, "store-wide cross-shard worker budget (0 = one per CPU)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout (0 = unbounded)")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
		cacheEnt  = flag.Int("cache-entries", 4096, "query-result cache entries for the default collection (0 = no cache)")
		cacheByte = flag.Int64("cache-bytes", 64<<20, "approximate query-result cache size in bytes for the default collection (0 = entries-only bound)")
		maxReads  = flag.Int("max-inflight-reads", defaultMaxInflightReads, "per-collection bound on in-flight search requests; beyond it requests get 429 + Retry-After (negative = unlimited)")
		maxWrites = flag.Int("max-inflight-writes", defaultMaxInflightWrites, "per-collection bound on in-flight add/ingest requests; beyond it requests get 429 + Retry-After (negative = unlimited)")
		follow    = flag.String("follow", "", "run as a read-only replication follower of this primary gserve base URL: bootstrap from its snapshot, tail its WAL, answer writes with 307 (requires -data)")
		replHB    = flag.Duration("repl-heartbeat", defaultReplHeartbeat, "heartbeat interval on replication WAL tail streams")
		memory    = flag.String("memory", "auto", "how checkpointed shard segments are served: auto (mmap where the platform supports it), map (explicitly request mmap), heap (rehydrate fully into memory)")
	)
	flag.Parse()

	if *follow != "" {
		if *data == "" {
			log.Fatal("-follow requires -data: a follower mirrors the primary's log durably")
		}
		if *index != "" {
			log.Fatal("-follow and -index are mutually exclusive: a follower seeds from the primary's snapshot")
		}
	}
	if *data == "" && *index == "" {
		log.Fatal("need -data (durable store directory) and/or -index (seed index file)")
	}
	var memMode graphdim.MemoryMode
	switch *memory {
	case "auto":
		memMode = graphdim.MemoryAuto
	case "map":
		memMode = graphdim.MemoryMap
	case "heap":
		memMode = graphdim.MemoryHeap
	default:
		log.Fatalf("memory must be auto, map, or heap, got %q", *memory)
	}

	// The metrics registry exists before the store: the WAL feeds its
	// fsync telemetry through StoreOptions at open time.
	m := newServerMetrics()
	storeOpts := graphdim.StoreOptions{
		Workers: *workers,
		Memory:  memMode,
		WAL:     graphdim.WALOptions{SyncObserver: m.walObserver()},
	}
	var store *graphdim.Store
	var err error
	if *follow != "" {
		// First start of a follower: pull the primary's checkpoint image.
		// A directory that already holds a store resumes from its own
		// image plus mirrored log instead.
		booted, err := bootstrapFromPrimary(nil, *follow, *data)
		if err != nil {
			log.Fatalf("bootstrap from %s: %v", *follow, err)
		}
		if booted {
			log.Printf("bootstrapped %s from %s", *data, *follow)
		}
	}
	if *data != "" {
		// The production path: open (or initialize) the durable store.
		// OpenStore replays each collection's WAL tail, so writes the
		// previous process acknowledged are back — checkpointed or not.
		store, err = graphdim.OpenOrCreateStore(*data, storeOpts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("opened store %s: %d collections %v", *data, len(store.Collections()), store.Collections())
	} else {
		store = graphdim.NewStore(storeOpts)
		log.Printf("no -data directory: online writes are volatile and lost on restart")
	}
	defer store.Close()

	if *index != "" {
		if _, ok := store.Collection(*collName); ok {
			log.Printf("collection %q already in the store; ignoring -index %s", *collName, *index)
		} else {
			f, err := os.Open(*index)
			if err != nil {
				log.Fatal(err)
			}
			idx, err := graphdim.ReadIndex(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			coll, err := store.CreateFromIndex(*collName, idx, graphdim.CollectionOptions{
				Shards:   *shards,
				Defaults: graphdim.SearchOptions{K: *k},
				Cache:    graphdim.CacheOptions{MaxEntries: *cacheEnt, MaxBytes: *cacheByte},
			})
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("seeded %s into collection %q: %d graphs, %d dimensions, %d shards",
				*index, *collName, coll.Size(), len(idx.Dimensions()), coll.Shards())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	followerID := ""
	if *follow != "" {
		if followerID, err = loadFollowerID(*data); err != nil {
			log.Fatal(err)
		}
	}
	s := newServerCfg(store, serverConfig{
		defaultK:      *k,
		timeout:       *timeout,
		maxReads:      *maxReads,
		maxWrites:     *maxWrites,
		metrics:       m,
		follow:        *follow,
		followerID:    followerID,
		replHeartbeat: *replHB,
	})
	if s.follower != nil {
		if err := s.startFollower(ctx); err != nil {
			log.Fatal(err)
		}
		log.Printf("following %s as %q", *follow, followerID)
	}
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Long-lived replication tail streams end when Shutdown begins, so
	// the grace period drains ordinary requests, not followers.
	srv.RegisterOnShutdown(s.beginShutdown)
	if *timeout > 0 {
		// The per-request context only bounds the search once the body is
		// parsed; these bound the I/O around it, so a slow-body client
		// cannot pin a handler goroutine past the advertised budget.
		srv.ReadTimeout = *timeout
		srv.WriteTimeout = 2 * *timeout
	}
	if store.Dir() != "" && *ckpEvery > 0 {
		go s.checkpointLoop(ctx, *ckpEvery)
	}
	if err := serve(ctx, srv, ln, *grace); err != nil {
		log.Fatal(err)
	}
	if s.follower != nil {
		// The signal context is done; join the tailers before the
		// deferred store.Close can pull the log out from under one.
		s.follower.wait()
	}
	// Graceful shutdown checkpoints so the next start replays nothing;
	// skipping it (a kill) costs replay time, never data. A clean store
	// skips it too — rewriting every shard to persist nothing new would
	// make restart latency proportional to store size.
	if store.Dir() != "" && s.walDirty() {
		if err := s.runCheckpoint(); err != nil {
			log.Printf("shutdown checkpoint failed (the WAL still holds every write): %v", err)
		} else {
			log.Printf("checkpointed %s", store.Dir())
		}
	}
	log.Printf("shut down cleanly")
}

// checkpointLoop checkpoints the store every interval until ctx ends,
// skipping ticks with nothing to persist — a checkpoint rewrites every
// shard file, which a read-mostly store should not pay for twelve times
// an hour.
func (s *server) checkpointLoop(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if !s.walDirty() {
				continue
			}
			if err := s.runCheckpoint(); err != nil {
				log.Printf("periodic checkpoint failed: %v", err)
			}
		}
	}
}

// walDirty reports whether any collection has log records the last
// checkpoint does not cover. Collections without a log (WAL disabled)
// count as dirty — there is no cheap way to tell. An unpersisted Compact
// is deliberately not counted: losing it to a crash costs the reclaimed
// slots back, never data and never a ranking.
func (s *server) walDirty() bool {
	for _, name := range s.store.Collections() {
		c, ok := s.store.Collection(name)
		if !ok {
			continue
		}
		st := c.Stats()
		if st.WAL == nil || st.WAL.LastSeq != st.WAL.CheckpointSeq {
			return true
		}
	}
	return false
}

// runCheckpoint checkpoints the store and keeps the /stats counters.
func (s *server) runCheckpoint() error {
	if err := s.store.Checkpoint(); err != nil {
		s.checkpointErrors.Add(1)
		return err
	}
	s.checkpoints.Add(1)
	s.lastCheckpointMS.Store(time.Now().UnixMilli())
	return nil
}

// beginShutdown releases the long-lived replication streams (they wait
// on s.closing) so graceful shutdown does not spend the whole grace
// period on them. Wired via srv.RegisterOnShutdown.
func (s *server) beginShutdown() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// serve runs srv on ln until ctx is cancelled (SIGINT/SIGTERM in main),
// then drains in-flight requests for up to grace. Split from main so the
// shutdown path is testable.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}

// maxBodyBytes caps a request body. 32 MiB is ~3 orders of magnitude
// above a realistic query batch in the text format.
const maxBodyBytes = 32 << 20

// server holds the store (safe for concurrent use: see graphdim.Store) and
// the cumulative counters reported by /stats. Counters are atomics —
// handler goroutines share no other mutable state.
type server struct {
	store    *graphdim.Store
	defaultK int
	timeout  time.Duration
	started  time.Time
	mux      *http.ServeMux
	metrics  *serverMetrics

	// Replication: heartbeat pacing for WAL tail streams, the follower
	// runtime (nil on a primary), per-follower ack bookkeeping
	// ("coll\x00follower" → *followerAck), the count of open tail
	// streams, and a channel closed at shutdown so long-lived streams
	// drain instead of pinning the grace period.
	replHeartbeat time.Duration
	follower      *followerRuntime
	replAcks      sync.Map
	replStreams   atomic.Int64
	closing       chan struct{}
	closeOnce     sync.Once

	// Admission control: per-collection read/write lanes sized by the
	// -max-inflight-* flags. laneMap is collection name → *lanePair,
	// created lazily so dynamically created collections get lanes too.
	maxReads  int
	maxWrites int
	laneMap   sync.Map

	requests  atomic.Int64 // search requests answered successfully
	queries   atomic.Int64 // individual query graphs answered
	added     atomic.Int64 // graphs added via the add endpoints
	errors    atomic.Int64 // requests rejected (sum with requests for the total)
	latencyUS atomic.Int64 // cumulative successful-search latency, microseconds

	checkpoints      atomic.Int64 // completed checkpoints (periodic, manual, shutdown)
	checkpointErrors atomic.Int64
	lastCheckpointMS atomic.Int64 // unix milliseconds of the last success, 0 = never
}

// ServeHTTP wraps every request with the latency/status instrumentation
// behind /metrics, then dispatches.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sr := &statusRecorder{ResponseWriter: w}
	s.mux.ServeHTTP(sr, r)
	code := sr.status
	if code == 0 {
		code = http.StatusOK // handler wrote nothing: net/http answers 200
	}
	s.metrics.observeRequest(endpointLabel(r), code, time.Since(start))
}

// Default admission lane widths: reads (search fan-outs) get a deep
// lane, writes (add/ingest, serialized per collection by the WAL commit
// anyway) a shallower one that keeps memory for buffered batches
// bounded.
const (
	defaultMaxInflightReads  = 256
	defaultMaxInflightWrites = 64
)

// serverConfig carries the serving knobs; the zero value of any field
// falls back to its default, so tests can set only what they exercise.
type serverConfig struct {
	defaultK int
	timeout  time.Duration
	// maxReads/maxWrites bound the in-flight requests per collection and
	// lane; 0 means the defaults above, negative means unlimited.
	maxReads  int
	maxWrites int
	// metrics is the pre-built registry (the WAL SyncObserver must exist
	// before the store opens); nil builds a fresh one.
	metrics *serverMetrics
	// follow, when set, runs the server as a replication follower of
	// that primary base URL: reads serve locally, writes answer 307.
	// followerID is its stable identity (retention holds key on it).
	follow     string
	followerID string
	// replHeartbeat paces heartbeats on idle WAL tail streams; 0 means
	// defaultReplHeartbeat.
	replHeartbeat time.Duration
}

func newServer(store *graphdim.Store, defaultK int, timeout time.Duration) *server {
	return newServerCfg(store, serverConfig{defaultK: defaultK, timeout: timeout})
}

func laneWidth(n, def int) int {
	switch {
	case n == 0:
		return def
	case n < 0:
		return 0 // pool.NewGate: <= 0 is unlimited
	}
	return n
}

func newServerCfg(store *graphdim.Store, cfg serverConfig) *server {
	if cfg.metrics == nil {
		cfg.metrics = newServerMetrics()
	}
	if cfg.replHeartbeat <= 0 {
		cfg.replHeartbeat = defaultReplHeartbeat
	}
	s := &server{
		store:         store,
		defaultK:      cfg.defaultK,
		timeout:       cfg.timeout,
		started:       time.Now(),
		metrics:       cfg.metrics,
		maxReads:      laneWidth(cfg.maxReads, defaultMaxInflightReads),
		maxWrites:     laneWidth(cfg.maxWrites, defaultMaxInflightWrites),
		replHeartbeat: cfg.replHeartbeat,
		closing:       make(chan struct{}),
	}
	if cfg.follow != "" {
		s.follower = newFollowerRuntime(cfg.follow, cfg.followerID)
	}
	s.registerStoreGauges()
	s.registerReplicationGauges()
	mux := http.NewServeMux()
	// Method checks live inside the handlers so that 405s (and the
	// fallback 404) carry the same JSON error shape as every other
	// failure.
	mux.HandleFunc("/v1/collections", s.handleCollections)
	mux.HandleFunc("/v1/collections/{name}", s.handleCollection)
	mux.HandleFunc("/v1/collections/{name}/{action}", s.handleCollectionAction)
	mux.HandleFunc("/v1/replication/snapshot", s.handleReplicationSnapshot)
	mux.HandleFunc("/v1/replication/{name}/wal", s.handleReplicationWAL)
	mux.HandleFunc("/v1/replication/{name}/ack", s.handleReplicationAck)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.fail(w, http.StatusNotFound, "no route %s %s (the API lives under /v1)", r.Method, r.URL.Path)
	})
	s.mux = mux
	return s
}

// clearConnDeadlines lifts the server-wide read/write deadlines off the
// connection for the endpoints exempt from -timeout (collection creation
// is an offline build; compaction and checkpoints copy whole shards):
// without this the connection's WriteTimeout, armed when the request
// arrived, would kill the response of any run outlasting it.
func clearConnDeadlines(w http.ResponseWriter) {
	rc := http.NewResponseController(w)
	// Errors mean the connection type doesn't support deadlines; then
	// there is nothing to lift.
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
}

// requestContext derives the per-request context, bounded by the
// configured timeout; the returned cancel must be deferred.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// lanePair is one collection's admission lanes. Reads and writes are
// separate so a scan storm saturating the read lane can never starve
// the fsync-bound write path, and vice versa.
type lanePair struct {
	read  *pool.Gate
	write *pool.Gate
}

// lanes returns (creating on first use) the admission lanes for a
// collection name. Lanes are keyed by name, not *Collection, so a
// dropped-and-recreated collection reuses its lane — the bound is about
// server resources, not collection identity.
func (s *server) lanes(coll string) *lanePair {
	if v, ok := s.laneMap.Load(coll); ok {
		return v.(*lanePair)
	}
	v, _ := s.laneMap.LoadOrStore(coll, &lanePair{
		read:  pool.NewGate(s.maxReads),
		write: pool.NewGate(s.maxWrites),
	})
	return v.(*lanePair)
}

// admit claims a slot in gate or sheds the request with 429 and a
// Retry-After the client can parse. The caller must defer gate.Leave()
// on a true return.
func (s *server) admit(w http.ResponseWriter, coll, lane string, gate *pool.Gate) bool {
	if gate.TryEnter() {
		return true
	}
	s.metrics.rejectCounter(coll, lane).Inc()
	// One second is the honest answer for a lane full of requests
	// bounded by -timeout: precise queue math isn't available from a
	// gate that keeps no queue.
	w.Header().Set("Retry-After", "1")
	s.fail(w, http.StatusTooManyRequests,
		"collection %q %s lane full (%d in flight); retry after the Retry-After delay",
		coll, lane, gate.Capacity())
	return false
}

// collection resolves a collection name, answering a JSON 404 itself when
// it does not exist.
func (s *server) collection(w http.ResponseWriter, name string) (*graphdim.Collection, bool) {
	c, ok := s.store.Collection(name)
	if !ok {
		s.fail(w, http.StatusNotFound, "collection %q not found", name)
		return nil, false
	}
	return c, true
}

// searchResult mirrors graphdim.Result with stable JSON field names.
type searchResult struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

type searchResponse struct {
	Collection string           `json:"collection,omitempty"`
	K          int              `json:"k"`
	Engine     string           `json:"engine"`
	Queries    int              `json:"queries"`
	ElapsedMS  float64          `json:"elapsed_ms"`
	Results    [][]searchResult `json:"results"`
	// Matched is the number of index dimensions each query graph
	// contains — low counts mean the mapped space carries little signal
	// for that query and the verified engine is worth the extra cost.
	Matched []int `json:"matched_dimensions"`
}

// parseSearchOptions resolves the effective per-query options: the
// collection's defaults (falling back to the server-wide -k), overridden
// by any knobs present in the URL. The overlay happens here, with
// NoDefaults set, rather than inside Collection.Search — the handler
// knows which parameters were explicitly given, so ?engine=mapped works
// even on a collection whose default engine is not mapped (the library
// overlay cannot distinguish explicit zero values from unset ones).
func (s *server) parseSearchOptions(r *http.Request, c *graphdim.Collection) (graphdim.SearchOptions, error) {
	opt := c.Defaults()
	opt.NoDefaults = true
	if opt.K == 0 {
		opt.K = s.defaultK
	}
	q := r.URL.Query()
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return opt, fmt.Errorf("k must be a positive integer, got %q", v)
		}
		opt.K = n
	}
	if v := q.Get("engine"); v != "" {
		e, err := graphdim.ParseEngine(v)
		if err != nil {
			return opt, fmt.Errorf("engine must be mapped, verified or exact, got %q", v)
		}
		opt.Engine = e
	}
	if v := q.Get("factor"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opt, fmt.Errorf("factor must be a non-negative integer, got %q", v)
		}
		opt.VerifyFactor = n
	}
	if v := q.Get("maxcand"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opt, fmt.Errorf("maxcand must be a non-negative integer, got %q", v)
		}
		opt.MaxCandidates = n
	}
	return opt, nil
}

func (s *server) readGraphs(w http.ResponseWriter, r *http.Request) ([]*graphdim.Graph, bool) {
	// Bound the request body so one oversized POST cannot exhaust server
	// memory; MaxBytesReader also closes the connection on overrun.
	gs, err := graphdim.ReadGraphs(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "parsing graphs: %v", err)
		return nil, false
	}
	if len(gs) == 0 {
		s.fail(w, http.StatusBadRequest, "no graphs in request body")
		return nil, false
	}
	return gs, true
}

// ---- /v1 collection management ----

// collectionSummary is one row of the list response.
type collectionSummary struct {
	Name   string `json:"name"`
	Shards int    `json:"shards"`
	Graphs int    `json:"graphs"`
}

func (s *server) handleCollections(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		names := s.store.Collections()
		out := make([]collectionSummary, 0, len(names))
		for _, name := range names {
			if c, ok := s.store.Collection(name); ok {
				out = append(out, collectionSummary{Name: name, Shards: c.Shards(), Graphs: c.Size()})
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"collections": out})
	case http.MethodPost:
		if s.redirectToPrimary(w, r) {
			return
		}
		s.handleCreateCollection(w, r)
	default:
		s.fail(w, http.StatusMethodNotAllowed, "GET lists collections, POST creates one")
	}
}

func (s *server) handleCreateCollection(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		s.fail(w, http.StatusBadRequest, "name parameter is required")
		return
	}
	opt := graphdim.CollectionOptions{}
	var err error
	intParam := func(key string, dst *int) bool {
		v := q.Get(key)
		if v == "" {
			return true
		}
		n, aerr := strconv.Atoi(v)
		if aerr != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "%s must be a non-negative integer, got %q", key, v)
			return false
		}
		*dst = n
		return true
	}
	if !intParam("shards", &opt.Shards) || !intParam("dimensions", &opt.Build.Dimensions) ||
		!intParam("k", &opt.Defaults.K) || !intParam("cache_entries", &opt.Cache.MaxEntries) {
		return
	}
	if v := q.Get("cache_bytes"); v != "" {
		n, aerr := strconv.ParseInt(v, 10, 64)
		if aerr != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "cache_bytes must be a non-negative integer, got %q", v)
			return
		}
		opt.Cache.MaxBytes = n
	}
	if v := q.Get("tau"); v != "" {
		opt.Build.Tau, err = strconv.ParseFloat(v, 64)
		if err != nil || opt.Build.Tau <= 0 || opt.Build.Tau > 1 {
			s.fail(w, http.StatusBadRequest, "tau must be in (0, 1], got %q", v)
			return
		}
	}
	switch q.Get("algorithm") {
	case "", "dspm":
	case "dspmap":
		opt.Build.Algorithm = graphdim.DSPMap
	default:
		s.fail(w, http.StatusBadRequest, "algorithm must be dspm or dspmap, got %q", q.Get("algorithm"))
		return
	}
	// Creation is a full offline build; it is deliberately exempt from the
	// per-request -timeout (context and connection deadlines both) and
	// bounded by the client connection instead.
	clearConnDeadlines(w)
	db, ok := s.readGraphs(w, r)
	if !ok {
		return
	}
	c, err := s.store.Create(r.Context(), name, db, opt)
	if err != nil {
		s.failQuery(w, r, r.Context(), err)
		return
	}
	writeJSON(w, http.StatusCreated, c.Stats())
}

func (s *server) handleCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	switch r.Method {
	case http.MethodGet:
		if c, ok := s.collection(w, name); ok {
			writeJSON(w, http.StatusOK, s.collectionStats(c))
		}
	case http.MethodDelete:
		if s.redirectToPrimary(w, r) {
			return
		}
		if err := s.store.Drop(name); err != nil {
			s.fail(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
	default:
		s.fail(w, http.StatusMethodNotAllowed, "GET reads collection stats, DELETE drops the collection")
	}
}

func (s *server) handleCollectionAction(w http.ResponseWriter, r *http.Request) {
	c, ok := s.collection(w, r.PathValue("name"))
	if !ok {
		return
	}
	switch action := r.PathValue("action"); action {
	case "search":
		s.handleSearch(w, r, c)
	case "add":
		s.handleAdd(w, r, c)
	case "ingest":
		s.handleIngest(w, r, c)
	case "query":
		s.handleQuery(w, r, c)
	case "stats":
		if r.Method != http.MethodGet {
			s.fail(w, http.StatusMethodNotAllowed, "GET reads collection stats")
			return
		}
		writeJSON(w, http.StatusOK, s.collectionStats(c))
	case "compact":
		s.handleCompact(w, r, c)
	case "checkpoint":
		s.handleCheckpoint(w, r, c)
	default:
		s.fail(w, http.StatusNotFound, "unknown action %q (want search, add, ingest, query, stats, compact or checkpoint)", action)
	}
}

// ---- search / add / compact ----

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request, c *graphdim.Collection) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST query graphs in the standard text format")
		return
	}
	if !s.checkFreshness(w, r, c) {
		return
	}
	gate := s.lanes(c.Name()).read
	if !s.admit(w, c.Name(), "read", gate) {
		return
	}
	defer gate.Leave()
	start := time.Now()
	opt, err := s.parseSearchOptions(r, c)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	queries, ok := s.readGraphs(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	batch, err := c.SearchBatch(ctx, queries, opt)
	if err != nil {
		s.failQuery(w, r, ctx, err)
		return
	}
	resp := searchResponse{
		Collection: c.Name(),
		K:          opt.K,
		Engine:     batch[0].Engine.String(),
		Queries:    len(queries),
		Results:    make([][]searchResult, len(batch)),
		Matched:    make([]int, len(batch)),
	}
	for i, res := range batch {
		out := make([]searchResult, len(res.Results))
		for j, r := range res.Results {
			out[j] = searchResult{ID: r.ID, Distance: r.Distance}
		}
		resp.Results[i] = out
		resp.Matched[i] = res.Matched.Count()
	}
	elapsed := time.Since(start)
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1e3

	s.requests.Add(1)
	s.queries.Add(int64(len(queries)))
	s.latencyUS.Add(elapsed.Microseconds())
	w.Header().Set(freshnessHeader, freshnessToken(c))
	writeJSON(w, http.StatusOK, resp)
}

type addResponse struct {
	Collection string `json:"collection,omitempty"`
	IDs        []int  `json:"ids"`
	Size       int    `json:"size"`
	// StaleRatio is the stalest shard's ratio — the operator's signal
	// that the collection has drifted from its dimension selection;
	// StaleRatios lists every shard.
	StaleRatio  float64   `json:"stale_ratio"`
	StaleRatios []float64 `json:"stale_ratios"`
}

func (s *server) handleAdd(w http.ResponseWriter, r *http.Request, c *graphdim.Collection) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST graphs in the standard text format")
		return
	}
	if s.redirectToPrimary(w, r) {
		return
	}
	gate := s.lanes(c.Name()).write
	if !s.admit(w, c.Name(), "write", gate) {
		return
	}
	defer gate.Leave()
	gs, ok := s.readGraphs(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	ids, err := c.Add(ctx, gs...)
	if err != nil {
		var pe *graphdim.PartialAddError
		if errors.As(err, &pe) {
			// Part of the batch committed (and, on a durable store, is
			// logged): a flat 400 would hide that from the caller. Answer
			// 207 with exactly the ids that landed.
			s.added.Add(int64(len(pe.Applied)))
			s.writePartialAdd(w, c.Name(), pe)
			return
		}
		s.failQuery(w, r, ctx, err)
		return
	}
	s.added.Add(int64(len(ids)))
	ratios := c.StaleRatios()
	resp := addResponse{Collection: c.Name(), IDs: ids, Size: c.Size(), StaleRatios: ratios}
	for _, r := range ratios {
		if r > resp.StaleRatio {
			resp.StaleRatio = r
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// partialAddResponse is the 207 body for a batch that landed partially:
// the applied ids are committed and searchable, the rest are not.
type partialAddResponse struct {
	Error      string `json:"error"`
	Collection string `json:"collection"`
	AppliedIDs []int  `json:"applied_ids"`
	Applied    int    `json:"applied"`
	Total      int    `json:"total"`
}

func (s *server) writePartialAdd(w http.ResponseWriter, collection string, pe *graphdim.PartialAddError) {
	s.errors.Add(1)
	applied := pe.Applied
	if applied == nil {
		applied = []int{}
	}
	writeJSON(w, http.StatusMultiStatus, partialAddResponse{
		Error:      pe.Error(),
		Collection: collection,
		AppliedIDs: applied,
		Applied:    len(applied),
		Total:      pe.Total,
	})
}

// handleCheckpoint persists the store to its -data directory and
// truncates the replayed WAL segments — the manual flush operators call
// before planned maintenance.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request, c *graphdim.Collection) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST triggers a checkpoint")
		return
	}
	if s.store.Dir() == "" {
		s.fail(w, http.StatusConflict, "store has no data directory (start gserve with -data)")
		return
	}
	// A checkpoint streams every shard to disk; like creation it ignores
	// -timeout.
	clearConnDeadlines(w)
	if err := s.runCheckpoint(); err != nil {
		s.fail(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	resp := map[string]any{
		"collection":  c.Name(),
		"checkpoints": s.checkpoints.Load(),
	}
	if st := c.Stats(); st.WAL != nil {
		resp["wal"] = st.WAL
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleCompact(w http.ResponseWriter, r *http.Request, c *graphdim.Collection) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST triggers compaction")
		return
	}
	// A reclaim copies every live graph of the shards it repacks (decoding
	// mapped payloads); like a checkpoint it ignores -timeout.
	clearConnDeadlines(w)
	n, err := c.Compact(r.Context())
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "compacted %d shards, then: %v", n, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"collection":   c.Name(),
		"compacted":    n,
		"stale_ratios": c.StaleRatios(),
	})
}

// ---- health and stats ----

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	names := s.store.Collections()
	graphs := 0
	for _, name := range names {
		if c, ok := s.store.Collection(name); ok {
			graphs += c.Size()
		}
	}
	out := map[string]any{
		"status":      "ok",
		"graphs":      graphs,
		"collections": len(names),
		"role":        "primary",
	}
	if f := s.follower; f != nil {
		out["role"] = "follower"
		out["primary"] = f.primaryURL
		lag := map[string]any{}
		for _, name := range names {
			if st, ok := f.tailerStatus(name); ok {
				entry := map[string]any{
					"connected":   st.Connected,
					"lag_records": lagRecords(st),
				}
				if !st.LastProgress.IsZero() {
					entry["lag_seconds"] = time.Since(st.LastProgress).Seconds()
				}
				lag[name] = entry
			}
		}
		out["replication"] = lag
		if f.bootstrapNeeded() {
			// Still serving (possibly stale) reads, but permanently behind:
			// surface it where probes look first.
			out["status"] = "degraded"
			out["needs_bootstrap"] = true
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// collectionStatsResponse is a collection's stats on the wire:
// graphdim.CollectionStats under the JSON names it declares, plus the
// collection's replication role and progress — server state, not
// collection state, filled in by server.collectionStats and omitted on a
// volatile store (nothing to ship).
type collectionStatsResponse struct {
	graphdim.CollectionStats
	Replication *replicationStatsJSON `json:"replication,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	requests := s.requests.Load()
	colls := map[string]collectionStatsResponse{}
	for _, name := range s.store.Collections() {
		if c, ok := s.store.Collection(name); ok {
			colls[name] = s.collectionStats(c)
		}
	}
	role := "primary"
	if s.follower != nil {
		role = "follower"
	}
	stats := map[string]any{
		"collections":      colls,
		"role":             role,
		"uptime_seconds":   time.Since(s.started).Seconds(),
		"search_requests":  requests,
		"queries_answered": s.queries.Load(),
		"graphs_added":     s.added.Load(),
		"errors":           s.errors.Load(),
	}
	if requests > 0 {
		stats["mean_latency_ms"] = float64(s.latencyUS.Load()) / float64(requests) / 1e3
	}
	if f := s.follower; f != nil {
		stats["primary"] = f.primaryURL
		if f.bootstrapNeeded() {
			stats["needs_bootstrap"] = true
		}
	}
	if dir := s.store.Dir(); dir != "" {
		stats["data_dir"] = dir
		stats["checkpoints"] = s.checkpoints.Load()
		stats["checkpoint_errors"] = s.checkpointErrors.Load()
		if ms := s.lastCheckpointMS.Load(); ms > 0 {
			stats["last_checkpoint_unix_ms"] = ms
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.errors.Add(1)
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// failQuery reports a search/add/create error, separating the three
// cancellation stories: the client hung up (nobody is listening — log
// and drop the response, a 503 here would only pollute the error class
// the operator alerts on), the server's own -timeout deadline expired
// (503, the server really was too slow), or a plain bad request (400).
// One helper so the POST endpoints cannot diverge. ctx is the
// requestContext-derived context the operation actually ran under.
func (s *server) failQuery(w http.ResponseWriter, r *http.Request, ctx context.Context, err error) {
	switch {
	case r.Context().Err() != nil:
		// The base request context ends only when the client disconnects
		// (or the server shuts down) — before any -timeout verdict.
		s.errors.Add(1)
		log.Printf("%s %s abandoned by client: %v", r.Method, r.URL.Path, err)
	case ctx.Err() != nil:
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.fail(w, http.StatusBadRequest, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
}
