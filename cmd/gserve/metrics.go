package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/pipeline"
)

// serverMetrics is the observability state behind /metrics: per-endpoint
// latency histograms, request/reject counters, and the WAL fsync
// telemetry fed by the store's SyncObserver. It is created before the
// store (the observer hook must exist at open time) and handed to
// newServerCfg.
type serverMetrics struct {
	reg *metrics.Registry

	// fsync latency and group-commit batch size arrive from the WAL's
	// SyncObserver — one observation per fsync, across all collections.
	fsync      *metrics.Histogram
	groupBatch *metrics.Histogram

	mu      sync.Mutex
	latency map[string]*metrics.Histogram // endpoint → request latency, ns
	stages  map[string]*metrics.Histogram // pipeline stage → latency, ns
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{
		reg:        metrics.NewRegistry(),
		fsync:      &metrics.Histogram{},
		groupBatch: &metrics.Histogram{},
		latency:    make(map[string]*metrics.Histogram),
		stages:     make(map[string]*metrics.Histogram),
	}
	m.reg.Summary("gserve_wal_fsync_duration_seconds", "",
		"time spent inside WAL fsync per group commit", m.fsync, 1e-9)
	m.reg.Summary("gserve_wal_group_commit_records", "",
		"records committed per WAL fsync (group-commit batch size)", m.groupBatch, 1)
	return m
}

// walObserver is the hook wired into WALOptions.SyncObserver. It runs
// with the log locked, so it only touches wait-free histograms.
func (m *serverMetrics) walObserver() func(d time.Duration, records int) {
	return func(d time.Duration, records int) {
		m.fsync.Observe(int64(d))
		m.groupBatch.Observe(int64(records))
	}
}

// endpointHistogram returns (registering on first use) the latency
// histogram for one endpoint label.
func (m *serverMetrics) endpointHistogram(endpoint string) *metrics.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[endpoint]
	if !ok {
		h = &metrics.Histogram{}
		m.latency[endpoint] = h
		m.reg.Summary("gserve_http_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", endpoint),
			"request latency by endpoint", h, 1e-9)
	}
	return h
}

// observeRequest records one finished request into the per-endpoint
// latency summary and the endpoint/code request counter.
func (m *serverMetrics) observeRequest(endpoint string, code int, d time.Duration) {
	m.endpointHistogram(endpoint).Observe(int64(d))
	m.reg.Counter("gserve_http_requests_total",
		fmt.Sprintf("code=\"%d\",endpoint=%q", code, endpoint),
		"requests served by endpoint and status code").Inc()
}

// stageHistogram returns (registering on first use) the latency summary
// for one pipeline stage. Like endpointHistogram, lazy registration
// keeps the series absent until a pipeline query actually runs, so the
// golden scrape shape of an idle server is unchanged.
func (m *serverMetrics) stageHistogram(stage string) *metrics.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.stages[stage]
	if !ok {
		h = &metrics.Histogram{}
		m.stages[stage] = h
		m.reg.Summary("gserve_pipeline_stage_duration_seconds",
			fmt.Sprintf("stage=%q", stage),
			"pipeline stage latency by stage", h, 1e-9)
	}
	return h
}

// observePipeline records one finished pipeline query: per-stage
// latencies and the pushdown/fallback split of its filter predicates.
// The counters register on first use for the same golden-scrape reason.
func (m *serverMetrics) observePipeline(st pipeline.Stats) {
	for _, t := range st.Stages {
		m.stageHistogram(t.Stage).Observe(int64(t.ElapsedMS * 1e6))
	}
	if st.PushedPredicates > 0 {
		m.reg.Counter("gserve_pipeline_pushdown_total", `outcome="pushdown"`,
			"filter predicates answered by posting pushdown vs per-graph fallback").
			Add(int64(st.PushedPredicates))
	}
	if st.FallbackPredicates > 0 {
		m.reg.Counter("gserve_pipeline_pushdown_total", `outcome="fallback"`,
			"filter predicates answered by posting pushdown vs per-graph fallback").
			Add(int64(st.FallbackPredicates))
	}
}

// rejectCounter returns the admission-reject counter for one lane.
func (m *serverMetrics) rejectCounter(collection, lane string) *metrics.Counter {
	return m.reg.Counter("gserve_admission_rejected_total",
		fmt.Sprintf("collection=%q,lane=%q", collection, lane),
		"requests shed with 429 because the lane was full")
}

// registerStoreGauges adds the gauges that read live store state at
// scrape time: aggregate cache hit ratio and the largest group-commit
// batch any collection's WAL has seen.
func (s *server) registerStoreGauges() {
	s.metrics.reg.Gauge("gserve_cache_hit_ratio", "",
		"query-cache hits / lookups across all collections (0 when idle)",
		func() float64 {
			var hits, total int64
			for _, name := range s.store.Collections() {
				c, ok := s.store.Collection(name)
				if !ok {
					continue
				}
				if st := c.Stats(); st.Cache != nil {
					hits += st.Cache.Hits
					total += st.Cache.Hits + st.Cache.Misses
				}
			}
			if total == 0 {
				return 0
			}
			return float64(hits) / float64(total)
		})
	s.metrics.reg.Gauge("gserve_wal_max_batch_records", "",
		"largest record group one WAL fsync has committed",
		func() float64 {
			max := 0
			for _, name := range s.store.Collections() {
				c, ok := s.store.Collection(name)
				if !ok {
					continue
				}
				if st := c.Stats(); st.WAL != nil && st.WAL.MaxBatch > max {
					max = st.WAL.MaxBatch
				}
			}
			return float64(max)
		})
}

// statusRecorder captures the response status for the request metrics.
// Unwrap keeps http.NewResponseController working through it (the
// ingest handler flushes and the offline builds lift deadlines).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// endpointLabel maps a request to the bounded endpoint vocabulary the
// metrics use — collection names (or arbitrary paths) in a label would
// explode the series space. Parsed from the raw path: the label is
// computed outside the mux, before path values exist.
func endpointLabel(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/v1/replication") {
		return "replication"
	}
	if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/collections"); ok {
		switch parts := strings.Split(strings.Trim(rest, "/"), "/"); len(parts) {
		case 1:
			if parts[0] == "" {
				return "collections"
			}
			return "collection"
		case 2:
			switch parts[1] {
			case "search", "add", "ingest", "query", "stats", "compact", "checkpoint":
				return parts[1]
			}
		}
		return "other"
	}
	switch r.URL.Path {
	case "/healthz":
		return "healthz"
	case "/stats":
		return "stats"
	case "/metrics":
		return "metrics"
	}
	return "other"
}

// handleMetrics serves the Prometheus scrape.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET scrapes metrics")
		return
	}
	s.metrics.reg.ServeHTTP(w, r)
}
