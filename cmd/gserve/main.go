// Command gserve serves top-k graph similarity queries over HTTP — the
// online half of the paper's offline/online split, grown into a multi-
// collection store: dspm builds an index once (expensive: mining, MCS
// matrix, DSPM) into a store directory, and gserve serves that directory
// from a graphdim.Store behind a versioned REST API. Collections grow
// online (/add maps new graphs into the fixed dimension space without
// re-mining). A collection keeps the one dimension set it was created
// with; its stats report the stale ratio, the operator's signal to
// create a fresh collection from the current graphs.
//
// The production deployment runs against a -data directory: the store is
// opened (or initialized) there, every accepted add and remove is
// write-ahead logged and fsynced before it is acknowledged, checkpoints
// run every -checkpoint-every (plus on graceful shutdown and on demand
// via the checkpoint action), and a restart — clean or kill -9 —
// recovers exactly the acknowledged writes by replaying the log tail
// over the last checkpoint. Without -data gserve starts an empty
// in-memory store whose collections, created over HTTP, are volatile.
//
// Usage:
//
//	dspm -gen 200 -out /var/lib/gserve -shards 4
//	gserve -data /var/lib/gserve -addr :8080 -checkpoint-every 5m
//
// The API is one table (routes.go); every request and error body is JSON
// except graph payloads, which use the text format "t # id" /
// "v id label" / "e u v label":
//
//	GET    /v1/collections                   list collections
//	POST   /v1/collections?name=N&shards=S   create a collection from the
//	       graphs in the body; optional build knobs: dimensions, tau,
//	       algorithm (dspm | dspmap), cache_entries and cache_bytes
//	       (query-result cache bounds); k is refused: it is a search
//	       knob, defaulting to -k
//	GET    /v1/collections/{name}            the collection's stats
//	DELETE /v1/collections/{name}            drop a collection
//	POST   /v1/collections/{name}/search     query graphs in the body; knobs:
//	       k (default -k), engine (mapped | verified | exact), factor,
//	       maxcand
//	POST   /v1/collections/{name}/query      run a JSON pipeline
//	       {"stages":[...]} of filter → search → aggregate stages (see
//	       internal/pipeline; cmd/gq runs the same documents offline)
//	POST   /v1/collections/{name}/add        map graphs into the collection
//	       and answer their ids; a batch lands whole or not at all
//	POST   /v1/collections/{name}/ingest     bulk-load NDJSON graphs, one
//	       {"labels":[...],"edges":[[u,v,label],...]} per line, ?batch=
//	       (default 256) per WAL fsync, one streamed ack line per batch
//	GET    /v1/collections/{name}/stats      graphdim.CollectionStats plus
//	       the replication block
//	POST   /v1/collections/{name}/compact    reclaim tombstoned slots (same
//	       dimensions, same rankings)
//	POST   /v1/collections/{name}/checkpoint persist the store and truncate
//	       replayed WAL segments (-data stores only, else 409)
//	GET    /v1/replication/snapshot          } a -data primary's surface for
//	GET    /v1/replication/{name}/wal        } followers (replication.go)
//	POST   /v1/replication/{name}/ack        }
//	GET    /healthz                          liveness probe
//	GET    /stats                            process-wide counters and every
//	       collection's stats, keyed by name
//	GET    /metrics                          Prometheus text format
//
// Every route answers the methods it does not serve with 405 (an Allow
// header names the ones it does), an unknown collection with 404, a body
// over its byte cap with 413, and a drop whose persisting checkpoint
// failed with 500 (the collection stays). On a -follow server the write
// routes (create, drop, add, ingest) answer 307 to the primary, and
// search and query honour ?min_freshness= with 412.
//
// Admission control bounds the in-flight requests per collection in two
// independent lanes — reads (search/query) via -max-inflight-reads
// (default 256) and writes (add/ingest) via -max-inflight-writes
// (default 64; negative = unlimited). Requests beyond the lane width
// are shed immediately with 429 and a Retry-After header, before the
// body is read, so overload degrades into fast rejections rather than
// queueing collapse.
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections, waits up to -grace for in-flight requests, checkpoints a
// -data store, then exits. -timeout bounds each request twice over: the
// connection's read/write deadlines cover the body transfer, and the
// request context cancels the underlying search. Create, ingest,
// compact, checkpoint and the replication streams are exempt.
//
// Example:
//
//	curl -s --data-binary @queries.graphs \
//	  'localhost:8080/v1/collections/default/search?k=5&engine=verified&factor=4'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/graphdim"
	"repro/internal/repl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gserve: ")
	var (
		data      = flag.String("data", "", "durable store directory (opened or created; dspm -out writes one): every add/remove is write-ahead logged and survives a crash; without it the store is empty, in memory and volatile")
		ckpEvery  = flag.Duration("checkpoint-every", 5*time.Minute, "periodic checkpoint interval for -data stores (0 = only manual /checkpoint actions and the shutdown checkpoint)")
		addr      = flag.String("addr", ":8080", "listen address")
		k         = flag.Int("k", 10, "default number of results per query")
		workers   = flag.Int("workers", 0, "store-wide cross-shard worker budget (0 = one per CPU)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout (0 = unbounded)")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
		maxReads  = flag.Int("max-inflight-reads", defaultMaxInflightReads, "per-collection bound on in-flight search requests; beyond it requests get 429 + Retry-After (negative = unlimited)")
		maxWrites = flag.Int("max-inflight-writes", defaultMaxInflightWrites, "per-collection bound on in-flight add/ingest requests; beyond it requests get 429 + Retry-After (negative = unlimited)")
		follow    = flag.String("follow", "", "run as a read-only replication follower of this primary gserve base URL: bootstrap from its snapshot, tail its WAL, answer writes with 307 (requires -data)")
		replHB    = flag.Duration("repl-heartbeat", defaultReplHeartbeat, "heartbeat interval on replication WAL tail streams")
	)
	flag.Parse()

	if *follow != "" && *data == "" {
		log.Fatal("-follow requires -data: a follower mirrors the primary's log durably")
	}

	// The metrics registry exists before the store: the WAL feeds its
	// fsync telemetry through StoreOptions at open time.
	m := newServerMetrics()
	storeOpts := graphdim.StoreOptions{
		Workers: *workers,
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
		t0 := time.Now()
		store, err = graphdim.OpenOrCreateStore(*data, storeOpts)
		if err != nil {
			log.Fatal(err)
		}
		opened := time.Since(t0)
		m.storeOpenSeconds = opened.Seconds()
		// A collection's replayed records are its log tail past its
		// checkpoint, which the open has just applied.
		names := store.Collections()
		replayed := make([]string, 0, len(names))
		for _, name := range names {
			c, _ := store.Collection(name)
			if st := c.Stats().WAL; st != nil {
				replayed = append(replayed, fmt.Sprintf("%s=%d", name, st.LastSeq-st.CheckpointSeq))
			}
		}
		log.Printf("opened store %s in %v: %d collections %v, log records replayed %v",
			*data, opened.Round(time.Microsecond), len(names), names, replayed)
	} else {
		store = graphdim.NewStore(storeOpts)
		log.Printf("no -data directory: online writes are volatile and lost on restart")
	}
	defer store.Close()

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
// checkpoint does not cover. Only a store with a data directory asks:
// every collection of it has a log. An unpersisted Compact is
// deliberately not counted: losing it to a crash costs the reclaimed
// slots back, never data and never a ranking.
func (s *server) walDirty() bool {
	for _, c := range s.collections() {
		if st := c.Stats().WAL; st.LastSeq != st.CheckpointSeq {
			return true
		}
	}
	return false
}

// collections is every collection in the store, in name order.
func (s *server) collections() []*graphdim.Collection {
	var out []*graphdim.Collection
	for _, name := range s.store.Collections() {
		if c, ok := s.store.Collection(name); ok { // skips a racing drop
			out = append(out, c)
		}
	}
	return out
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
// behind /metrics, then hands it to the route table (routes.go).
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sr := &statusRecorder{ResponseWriter: w, label: "other"}
	s.mux.ServeHTTP(sr, r)
	code := sr.status
	if code == 0 {
		code = http.StatusOK // handler wrote nothing: net/http answers 200
	}
	s.metrics.observeRequest(sr.label, code, time.Since(start))
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
		s.follower = &followerRuntime{
			primaryURL: strings.TrimSuffix(cfg.follow, "/"),
			id:         cfg.followerID,
			tailers:    make(map[string]*repl.Tailer),
		}
	}
	s.registerStoreGauges()
	s.registerReplicationGauges()
	s.mux = s.newMux()
	return s
}
