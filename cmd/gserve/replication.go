// Replication wiring: gserve as a WAL-shipping primary and as a
// read-only follower.
//
// Any -data server is implicitly a primary — three endpoints expose its
// durable state to followers:
//
//	GET  /v1/replication/snapshot              the last checkpoint as a
//	     tar archive (store.json plus shard files); a follower's
//	     bootstrap image
//	GET  /v1/replication/{name}/wal?after=N    an unbounded chunked
//	     stream of the collection's settled WAL records after N, in the
//	     repl envelope format; heartbeats when caught up. A ?follower=ID
//	     parameter registers a retention hold so checkpoints never
//	     truncate segments the follower still needs
//	POST /v1/replication/{name}/ack?follower=ID&seq=N
//	     advances the follower's hold, releasing segments ≤ N
//
// A -follow server is a follower: it bootstraps its empty -data
// directory from the primary's snapshot, runs one repl.Tailer per
// collection feeding graphdim's ReplicaApplier, serves searches from
// local state, and answers writes with a 307 to the primary. Search
// responses everywhere carry an X-Graphdim-Freshness token
// ("<applied>:<gen,gen,...>"); clients that need read-your-writes pass
// the applied sequence back as ?min_freshness= and a lagging follower
// answers 412 instead of serving stale results.
package main

import (
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/graphdim"
	"repro/internal/repl"
	"repro/internal/wal"
)

// freshnessHeader carries the serving collection's read-consistency
// token on every search response.
const freshnessHeader = "X-Graphdim-Freshness"

// defaultReplHeartbeat paces heartbeats on an idle WAL tail stream. It
// bounds two things: how stale a follower's notion of the primary's
// applied sequence can get, and how long a dead connection lingers
// before a write error surfaces.
const defaultReplHeartbeat = 3 * time.Second

// freshnessToken renders a collection's freshness coordinates:
// "<applied>:<g0>,<g1>,...". The applied sequence is the comparable
// half (the primary's total write order); the per-shard generation
// vector rides along for observability only.
func freshnessToken(c *graphdim.Collection) string {
	applied, gens := c.Freshness()
	var b strings.Builder
	b.WriteString(strconv.FormatUint(applied, 10))
	b.WriteByte(':')
	for i, g := range gens {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(g, 10))
	}
	return b.String()
}

// checkFreshness enforces ?min_freshness= on a read: a full token or a
// bare applied sequence is accepted, and a collection behind it answers
// 412 with its current token so the client can retry here or fall back
// to the primary. True means the read may proceed.
func (s *server) checkFreshness(w http.ResponseWriter, r *http.Request, c *graphdim.Collection) bool {
	v := r.URL.Query().Get("min_freshness")
	if v == "" {
		return true
	}
	num := v
	if i := strings.IndexByte(num, ':'); i >= 0 {
		num = num[:i]
	}
	min, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "min_freshness must be an applied sequence or freshness token, got %q", v)
		return false
	}
	if applied := c.AppliedSeq(); applied < min {
		w.Header().Set(freshnessHeader, freshnessToken(c))
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusPreconditionFailed,
			"collection %q is at applied sequence %d, behind the requested freshness %d", c.Name(), applied, min)
		return false
	}
	return true
}

// ---- primary side ----

// followerAck is the per-(collection, follower) bookkeeping behind
// stats: the acknowledged sequence, when it last moved, and how many
// tail streams the follower has open. The retention hold itself lives
// in the WAL (graphdim.WALRetain); this is the observable shadow.
type followerAck struct {
	mu      sync.Mutex
	acked   uint64
	lastAck time.Time
	streams int
}

func (s *server) followerInfo(coll, follower string) *followerAck {
	key := coll + "\x00" + follower
	if v, ok := s.replAcks.Load(key); ok {
		return v.(*followerAck)
	}
	v, _ := s.replAcks.LoadOrStore(key, &followerAck{})
	return v.(*followerAck)
}

// handleReplicationSnapshot streams the store's checkpoint image. A
// dirty WAL triggers a checkpoint first — the image a follower
// acknowledges against should be as fresh as possible (it shrinks the
// tail the follower must then stream), and on a store that has never
// persisted it guarantees a manifest exists at all.
func (s *server) handleReplicationSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET streams a checkpoint snapshot")
		return
	}
	if s.store.Dir() == "" {
		s.fail(w, http.StatusConflict, "store has no data directory (start gserve with -data); a volatile store cannot be a replication primary")
		return
	}
	if s.walDirty() {
		if err := s.runCheckpoint(); err != nil {
			log.Printf("snapshot checkpoint failed (serving the previous image): %v", err)
		}
	}
	// A snapshot streams every shard; like checkpoints it ignores -timeout.
	clearConnDeadlines(w)
	w.Header().Set("Content-Type", "application/x-tar")
	cw := &countingWriter{w: w}
	if err := s.store.WriteSnapshotTar(cw); err != nil {
		if cw.n == 0 {
			s.fail(w, http.StatusInternalServerError, "snapshot: %v", err)
			return
		}
		// Mid-stream there is no way to change the status; abort the
		// connection so the follower sees a broken tar, never a silently
		// short one.
		log.Printf("replication snapshot failed mid-stream: %v", err)
		panic(http.ErrAbortHandler)
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// handleReplicationWAL is the tail stream: it drains the collection's
// settled records after ?after=, heartbeats when caught up, and
// long-polls on WAL commits. The connection lives until the client
// leaves or the server shuts down. With ?follower=ID the position is
// pinned against checkpoint truncation before the first byte is served.
func (s *server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET tails the write-ahead log")
		return
	}
	c, ok := s.collection(w, r.PathValue("name"))
	if !ok {
		return
	}
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "after must be a sequence number, got %q", v)
			return
		}
		after = n
	}
	stream, err := c.StreamWAL(after)
	if err != nil {
		s.fail(w, http.StatusConflict, "%v", err)
		return
	}
	defer stream.Close()
	if follower := q.Get("follower"); follower != "" {
		// The hold must exist before any byte ships: everything past the
		// follower's position survives checkpoints from here on. It
		// deliberately persists across disconnects — only acks move it.
		c.WALRetain(follower, after)
		fa := s.followerInfo(c.Name(), follower)
		fa.mu.Lock()
		fa.streams++
		fa.mu.Unlock()
		defer func() {
			fa.mu.Lock()
			fa.streams--
			fa.mu.Unlock()
		}()
	}
	s.replStreams.Add(1)
	defer s.replStreams.Add(-1)

	// Prime the stream before committing to a 200: a truncated position
	// can still answer 410 Gone, which the tailer maps to a snapshot
	// re-bootstrap.
	first, haveFirst, err := stream.Next(c.AppliedSeq())
	if err != nil {
		if errors.Is(err, wal.ErrTruncated) {
			s.fail(w, http.StatusGone, "%v", err)
			return
		}
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}

	// The stream outlives -timeout by design.
	clearConnDeadlines(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	hb := time.NewTicker(s.replHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	if haveFirst {
		if err := repl.WriteRecord(w, first); err != nil {
			return
		}
	}
	for {
		// Grab the commit signal before draining: a record committed
		// during the drain closes this channel and wakes the next wait
		// immediately.
		commits := c.WALCommits()
		for {
			rec, ok, err := stream.Next(c.AppliedSeq())
			if err != nil {
				if errors.Is(err, wal.ErrTruncated) {
					// Checkpointed away mid-stream (no retention hold, or a
					// hold released by a stale ack): the follower must
					// re-bootstrap.
					repl.WriteTruncated(w)
					rc.Flush()
					return
				}
				log.Printf("replication stream %s: %v", c.Name(), err)
				panic(http.ErrAbortHandler)
			}
			if !ok {
				break
			}
			if err := repl.WriteRecord(w, rec); err != nil {
				return
			}
		}
		// Caught up. The heartbeat doubles as the settle signal: the
		// follower may apply its buffered add batch because any amendment
		// would have been streamed before the watermark let us get here.
		if err := repl.WriteHeartbeat(w, c.AppliedSeq()); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-s.closing:
			return
		case <-commits:
		case <-hb.C:
		}
	}
}

// handleReplicationAck advances a follower's retention hold. Best-effort
// on the follower side — a lost ack only delays truncation, never
// correctness — so the answer is a bare 204.
func (s *server) handleReplicationAck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST acknowledges replicated sequences")
		return
	}
	c, ok := s.collection(w, r.PathValue("name"))
	if !ok {
		return
	}
	q := r.URL.Query()
	follower := q.Get("follower")
	v := q.Get("seq")
	if follower == "" || v == "" {
		s.fail(w, http.StatusBadRequest, "follower and seq parameters are required")
		return
	}
	seq, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "seq must be a sequence number, got %q", v)
		return
	}
	c.WALRetain(follower, seq)
	fa := s.followerInfo(c.Name(), follower)
	fa.mu.Lock()
	if seq > fa.acked {
		fa.acked = seq
	}
	fa.lastAck = time.Now()
	fa.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// ---- follower side ----

// followerRuntime is the follower-mode state: the primary's address,
// this follower's stable identity, and one tailer per collection.
type followerRuntime struct {
	primaryURL string
	id         string

	mu      sync.Mutex
	tailers map[string]*repl.Tailer
	// wg joins the tailer goroutines: the store must not close under a
	// tailer mid-apply, so shutdown cancels their context and waits here.
	wg sync.WaitGroup

	// needsBootstrap latches when the primary reports our position
	// truncated: tailing has stopped and only an operator wiping the
	// data directory and restarting (which re-bootstraps from a fresh
	// snapshot) recovers. Deliberately not automatic — it discards the
	// local image.
	needsBootstrap bool
}

func newFollowerRuntime(primaryURL, id string) *followerRuntime {
	return &followerRuntime{
		primaryURL: strings.TrimSuffix(primaryURL, "/"),
		id:         id,
		tailers:    make(map[string]*repl.Tailer),
	}
}

func (f *followerRuntime) tailerStatus(coll string) (repl.Status, bool) {
	f.mu.Lock()
	t := f.tailers[coll]
	f.mu.Unlock()
	if t == nil {
		return repl.Status{}, false
	}
	return t.Status(), true
}

func (f *followerRuntime) bootstrapNeeded() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.needsBootstrap
}

// wait blocks until every tailer goroutine has exited; call after
// cancelling their context and before closing the store.
func (f *followerRuntime) wait() { f.wg.Wait() }

// startFollower spawns one WAL tailer per collection present in the
// local (bootstrapped) store. Collections created on the primary after
// the bootstrap are not picked up until the follower re-bootstraps.
func (s *server) startFollower(ctx context.Context) error {
	f := s.follower
	for _, name := range s.store.Collections() {
		c, ok := s.store.Collection(name)
		if !ok {
			continue
		}
		rep, err := c.Replica()
		if err != nil {
			return err
		}
		t, err := repl.NewTailer(repl.Config{
			PrimaryURL: f.primaryURL,
			Collection: name,
			FollowerID: f.id,
			Applier:    rep,
		})
		if err != nil {
			return err
		}
		f.mu.Lock()
		f.tailers[name] = t
		f.mu.Unlock()
		f.wg.Add(1)
		go func(name string) {
			defer f.wg.Done()
			err := t.Run(ctx)
			if errors.Is(err, repl.ErrNeedsBootstrap) {
				f.mu.Lock()
				f.needsBootstrap = true
				f.mu.Unlock()
				log.Printf("follower: collection %q fell behind the primary's retained log; wipe %s and restart to re-bootstrap", name, s.store.Dir())
				return
			}
			if ctx.Err() == nil {
				log.Printf("follower: tailer for %q exited: %v", name, err)
			}
		}(name)
	}
	return nil
}

// bootstrapFromPrimary fetches the primary's checkpoint snapshot into
// dir when dir holds no store yet, and reports whether it did. An
// existing local store resumes from its own image and mirrored log
// instead — the normal restart path.
func bootstrapFromPrimary(client *http.Client, primaryURL, dir string) (bool, error) {
	if _, err := os.Stat(filepath.Join(dir, "store.json")); err == nil {
		return false, nil
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(strings.TrimSuffix(primaryURL, "/") + "/v1/replication/snapshot")
	if err != nil {
		return false, fmt.Errorf("fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("primary answered %s to the snapshot fetch: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if err := graphdim.ExtractSnapshotTar(dir, resp.Body); err != nil {
		return false, err
	}
	return true, nil
}

// loadFollowerID reads (minting and persisting on first start) the
// follower's stable identity from replication.json in the data
// directory.
func loadFollowerID(dataDir string) (string, error) {
	statePath := filepath.Join(dataDir, "replication.json")
	st, err := repl.LoadState(statePath)
	if err != nil {
		return "", err
	}
	if st.FollowerID == "" {
		st.FollowerID = newFollowerID()
		if err := st.Save(statePath); err != nil {
			return "", err
		}
	}
	return st.FollowerID, nil
}

// newFollowerID mints a follower identity: hostname plus random suffix.
// It is generated once and persisted (replication.json in the data
// directory) — the primary keys retention holds on it, so it must
// survive restarts.
func newFollowerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "follower"
	}
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("%s-%d", host, time.Now().UnixNano())
	}
	return fmt.Sprintf("%s-%x", host, b)
}

// redirectToPrimary answers a follower-side write with a 307 pointing
// at the primary: the method and body are preserved by conforming
// clients, and the JSON body names the target for everyone else. True
// means the response was written.
func (s *server) redirectToPrimary(w http.ResponseWriter, r *http.Request) bool {
	if s.follower == nil {
		return false
	}
	target := s.follower.primaryURL + r.URL.RequestURI()
	w.Header().Set("Location", target)
	writeJSON(w, http.StatusTemporaryRedirect, map[string]string{
		"error":   "this server is a read-only replication follower; retry the write against the primary",
		"primary": target,
	})
	return true
}

// lagRecords is the replay lag in records one tailer reports.
func lagRecords(st repl.Status) uint64 {
	if st.PrimaryApplied > st.LocalApplied {
		return st.PrimaryApplied - st.LocalApplied
	}
	return 0
}

// ---- stats ----

// followerStatJSON is one registered follower in a primary's stats.
type followerStatJSON struct {
	ID        string `json:"id"`
	AckedSeq  uint64 `json:"acked_seq"`
	Streams   int    `json:"streams"`
	LastAckMS int64  `json:"last_ack_unix_ms,omitempty"`
}

// replicationStatsJSON is the per-collection replication block in
// stats responses; the Role discriminates which fields are meaningful.
type replicationStatsJSON struct {
	Role       string `json:"role"`
	AppliedSeq uint64 `json:"applied_seq"`
	LastSeq    uint64 `json:"last_seq"`

	// Primary fields.
	Followers []followerStatJSON `json:"followers,omitempty"`

	// Follower fields.
	Primary        string  `json:"primary,omitempty"`
	Connected      bool    `json:"connected,omitempty"`
	NeedsBootstrap bool    `json:"needs_bootstrap,omitempty"`
	Reconnects     uint64  `json:"reconnects,omitempty"`
	RecordsApplied uint64  `json:"records_applied,omitempty"`
	PrimaryApplied uint64  `json:"primary_applied,omitempty"`
	LagRecords     uint64  `json:"lag_records"`
	LagSeconds     float64 `json:"lag_seconds,omitempty"`
	LastError      string  `json:"last_error,omitempty"`
}

// replicationStats builds the replication block for one collection: the
// follower's tailer view in -follow mode, the registered-follower table
// on a durable primary, nil on a volatile store (which has no log to
// ship).
func (s *server) replicationStats(c *graphdim.Collection) *replicationStatsJSON {
	if f := s.follower; f != nil {
		out := &replicationStatsJSON{
			Role:       "follower",
			Primary:    f.primaryURL,
			AppliedSeq: c.AppliedSeq(),
			LastSeq:    c.LastWALSeq(),
		}
		if st, ok := f.tailerStatus(c.Name()); ok {
			out.Connected = st.Connected
			out.NeedsBootstrap = st.NeedsBootstrap
			out.Reconnects = st.Reconnects
			out.RecordsApplied = st.RecordsApplied
			out.PrimaryApplied = st.PrimaryApplied
			if st.PrimaryApplied > st.LocalApplied {
				out.LagRecords = st.PrimaryApplied - st.LocalApplied
			}
			if !st.LastProgress.IsZero() {
				out.LagSeconds = time.Since(st.LastProgress).Seconds()
			}
			out.LastError = st.LastError
		}
		return out
	}
	if s.store.Dir() == "" {
		return nil
	}
	out := &replicationStatsJSON{
		Role:       "primary",
		AppliedSeq: c.AppliedSeq(),
		LastSeq:    c.LastWALSeq(),
	}
	prefix := c.Name() + "\x00"
	s.replAcks.Range(func(k, v any) bool {
		key := k.(string)
		if !strings.HasPrefix(key, prefix) {
			return true
		}
		fa := v.(*followerAck)
		fa.mu.Lock()
		fs := followerStatJSON{ID: strings.TrimPrefix(key, prefix), AckedSeq: fa.acked, Streams: fa.streams}
		if !fa.lastAck.IsZero() {
			fs.LastAckMS = fa.lastAck.UnixMilli()
		}
		fa.mu.Unlock()
		out.Followers = append(out.Followers, fs)
		return true
	})
	sort.Slice(out.Followers, func(i, j int) bool { return out.Followers[i].ID < out.Followers[j].ID })
	return out
}

// collectionStats is the collection's own stats plus the server-level
// replication block.
func (s *server) collectionStats(c *graphdim.Collection) collectionStatsResponse {
	return collectionStatsResponse{CollectionStats: c.Stats(), Replication: s.replicationStats(c)}
}

// registerReplicationGauges adds the replication series to /metrics.
// They register only when the server can actually replicate — follower
// gauges in -follow mode, primary gauges on a durable store — so a
// volatile server's scrape shape is unchanged.
func (s *server) registerReplicationGauges() {
	if f := s.follower; f != nil {
		eachStatus := func(fn func(repl.Status)) {
			f.mu.Lock()
			tailers := make([]*repl.Tailer, 0, len(f.tailers))
			for _, t := range f.tailers {
				tailers = append(tailers, t)
			}
			f.mu.Unlock()
			for _, t := range tailers {
				fn(t.Status())
			}
		}
		s.metrics.reg.Gauge("gserve_replication_lag_records", "",
			"replay lag behind the primary in records (max over collections)",
			func() float64 {
				var max uint64
				eachStatus(func(st repl.Status) {
					if st.PrimaryApplied > st.LocalApplied && st.PrimaryApplied-st.LocalApplied > max {
						max = st.PrimaryApplied - st.LocalApplied
					}
				})
				return float64(max)
			})
		s.metrics.reg.Gauge("gserve_replication_lag_seconds", "",
			"seconds since the last record or heartbeat arrived (max over collections)",
			func() float64 {
				var max float64
				eachStatus(func(st repl.Status) {
					if !st.LastProgress.IsZero() {
						if lag := time.Since(st.LastProgress).Seconds(); lag > max {
							max = lag
						}
					}
				})
				return max
			})
		s.metrics.reg.Gauge("gserve_replication_records_applied", "",
			"records replicated and applied locally since startup",
			func() float64 {
				var sum uint64
				eachStatus(func(st repl.Status) { sum += st.RecordsApplied })
				return float64(sum)
			})
		s.metrics.reg.Gauge("gserve_replication_connected", "",
			"1 when every collection's tailer is connected to the primary",
			func() float64 {
				all := 1.0
				eachStatus(func(st repl.Status) {
					if !st.Connected {
						all = 0
					}
				})
				return all
			})
		s.metrics.reg.Gauge("gserve_replication_needs_bootstrap", "",
			"1 when the primary truncated past this follower and a wipe-and-restart is required",
			func() float64 {
				if s.follower.bootstrapNeeded() {
					return 1
				}
				return 0
			})
		return
	}
	if s.store.Dir() == "" {
		return
	}
	s.metrics.reg.Gauge("gserve_replication_followers", "",
		"registered replication followers (collection-follower retention holds)",
		func() float64 {
			n := 0
			s.replAcks.Range(func(any, any) bool { n++; return true })
			return float64(n)
		})
	s.metrics.reg.Gauge("gserve_replication_streams", "",
		"open WAL tail streams",
		func() float64 { return float64(s.replStreams.Load()) })
}
