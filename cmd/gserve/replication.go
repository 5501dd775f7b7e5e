package main

// The primary side of replication (any -data server): the snapshot,
// WAL-tail and ack routes followers drive, their stats and gauges, and
// the freshness token both roles serve — "<applied>:<gen,gen,...>" on
// every search and query response; a client that needs read-your-writes
// passes the applied sequence back as ?min_freshness=.

import (
	"errors"
	"io"
	"log"
	"net/http"
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
// to the primary. True means the read may proceed. The dispatcher calls
// it for every route the table marks fresh.
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
func (s *server) handleReplicationSnapshot(cl *call) {
	w := cl.w
	if s.store.Dir() == "" {
		s.fail(w, http.StatusConflict, "store has no data directory (start gserve with -data); a volatile store cannot be a replication primary")
		return
	}
	if s.walDirty() {
		if err := s.runCheckpoint(); err != nil {
			log.Printf("snapshot checkpoint failed (serving the previous image): %v", err)
		}
	}
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
// applied records after ?after=, heartbeats when caught up, and
// long-polls on WAL commits. The connection lives until the client
// leaves or the server shuts down. With ?follower=ID the position is
// pinned against checkpoint truncation before the first byte is served.
// The stream outlives -timeout by design.
func (s *server) handleReplicationWAL(cl *call) {
	w, c := cl.w, cl.c
	q := cl.r.URL.Query()
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

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	hb := time.NewTicker(s.replHeartbeat)
	defer hb.Stop()
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
		// Caught up: the heartbeat tells the follower to apply what it
		// buffered and ack.
		if err := repl.WriteHeartbeat(w, c.AppliedSeq()); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
		select {
		case <-cl.ctx.Done():
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
func (s *server) handleReplicationAck(cl *call) {
	w, c := cl.w, cl.c
	q := cl.r.URL.Query()
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
			lag := lagOf(st)
			out.Connected = lag.Connected
			out.LagRecords = lag.Records
			out.LagSeconds = lag.Seconds
			out.NeedsBootstrap = st.NeedsBootstrap
			out.Reconnects = st.Reconnects
			out.RecordsApplied = st.RecordsApplied
			out.PrimaryApplied = st.PrimaryApplied
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
	if s.follower != nil {
		s.registerFollowerGauges()
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
