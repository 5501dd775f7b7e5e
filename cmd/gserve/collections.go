package main

import (
	"net/http"
	"strconv"
	"time"

	"repro/graphdim"
)

// ---- /v1 collection management ----

// collectionSummary is one row of the list response.
type collectionSummary struct {
	Name   string `json:"name"`
	Shards int    `json:"shards"`
	Graphs int    `json:"graphs"`
}

func (s *server) handleList(cl *call) {
	out := []collectionSummary{}
	for _, c := range s.collections() {
		out = append(out, collectionSummary{Name: c.Name(), Shards: c.Shards(), Graphs: c.Size()})
	}
	writeJSON(cl.w, http.StatusOK, map[string]any{"collections": out})
}

// handleCreate builds a collection from the graphs in the body. Creation
// is a full offline build: the route is exempt from -timeout and bounded
// by the client connection instead.
func (s *server) handleCreate(cl *call) {
	w := cl.w
	q := cl.r.URL.Query()
	name := q.Get("name")
	if name == "" {
		s.fail(w, http.StatusBadRequest, "name parameter is required")
		return
	}
	if q.Has("k") {
		s.fail(w, http.StatusBadRequest, "k is a per-request search parameter, not a collection option (the server default is -k)")
		return
	}
	opt := graphdim.CollectionOptions{}
	var cacheBytes int
	intParam := func(key string, dst *int) bool {
		v := q.Get(key)
		if v == "" {
			return true
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "%s must be a non-negative integer, got %q", key, v)
			return false
		}
		*dst = n
		return true
	}
	if !intParam("shards", &opt.Shards) || !intParam("dimensions", &opt.Build.Dimensions) ||
		!intParam("cache_entries", &opt.Cache.MaxEntries) || !intParam("cache_bytes", &cacheBytes) {
		return
	}
	opt.Cache.MaxBytes = int64(cacheBytes)
	if v := q.Get("tau"); v != "" {
		var err error
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
	db, ok := s.readGraphs(w, cl.r)
	if !ok {
		return
	}
	c, err := s.store.Create(cl.ctx, name, db, opt)
	if err != nil {
		s.failQuery(cl, err)
		return
	}
	writeJSON(w, http.StatusCreated, c.Stats())
}

// handleDrop drops the collection the dispatcher resolved. Any error is
// the server's: on a durable store it is the checkpoint persisting the
// drop, which Drop undoes — the collection is still there and serving.
func (s *server) handleDrop(cl *call) {
	name := cl.c.Name()
	if err := s.store.Drop(name); err != nil {
		s.fail(cl.w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(cl.w, http.StatusOK, map[string]string{"dropped": name})
}

func (s *server) handleCollectionStats(cl *call) {
	writeJSON(cl.w, http.StatusOK, s.collectionStats(cl.c))
}

// handleCheckpoint persists the store to its -data directory and
// truncates the replayed WAL segments — the manual flush operators call
// before planned maintenance.
func (s *server) handleCheckpoint(cl *call) {
	w, c := cl.w, cl.c
	if s.store.Dir() == "" {
		s.fail(w, http.StatusConflict, "store has no data directory (start gserve with -data)")
		return
	}
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

// handleCompact reclaims tombstoned slots. A reclaim copies every live
// graph of the shards it repacks (decoding mapped payloads), so like a
// checkpoint the route ignores -timeout.
func (s *server) handleCompact(cl *call) {
	c := cl.c
	n, err := c.Compact(cl.ctx)
	if err != nil {
		s.fail(cl.w, http.StatusInternalServerError, "compacted %d shards, then: %v", n, err)
		return
	}
	writeJSON(cl.w, http.StatusOK, map[string]any{
		"collection":   c.Name(),
		"compacted":    n,
		"stale_ratios": c.StaleRatios(),
	})
}

// ---- health and stats ----

func (s *server) handleHealthz(cl *call) {
	colls := s.collections()
	graphs := 0
	for _, c := range colls {
		graphs += c.Size()
	}
	out := map[string]any{
		"status":      "ok",
		"graphs":      graphs,
		"collections": len(colls),
		"role":        "primary",
	}
	if f := s.follower; f != nil {
		out["role"] = "follower"
		out["primary"] = f.primaryURL
		lag := map[string]tailerLag{}
		for _, c := range colls {
			if st, ok := f.tailerStatus(c.Name()); ok {
				lag[c.Name()] = lagOf(st)
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
	writeJSON(cl.w, http.StatusOK, out)
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

func (s *server) handleStats(cl *call) {
	requests := s.requests.Load()
	colls := map[string]collectionStatsResponse{}
	for _, c := range s.collections() {
		colls[c.Name()] = s.collectionStats(c)
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
	writeJSON(cl.w, http.StatusOK, stats)
}
