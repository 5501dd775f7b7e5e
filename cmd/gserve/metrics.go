package main

import (
	"fmt"
	"net/http"
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

	// fsync latency and records per fsync arrive from the WAL's
	// SyncObserver — one observation per fsync, across all collections.
	fsync       *metrics.Histogram
	syncRecords *metrics.Histogram

	mu      sync.Mutex
	latency map[[2]string]*metrics.Histogram // {series, label value} → latency, ns

	// storeOpenSeconds is the wall time of the startup OpenOrCreateStore,
	// 0 without -data. main sets it before the server starts.
	storeOpenSeconds float64
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{
		reg:         metrics.NewRegistry(),
		fsync:       &metrics.Histogram{},
		syncRecords: &metrics.Histogram{},
		latency:     make(map[[2]string]*metrics.Histogram),
	}
	m.reg.Summary("gserve_wal_fsync_duration_seconds", "",
		"time spent inside one WAL fsync", m.fsync, 1e-9)
	m.reg.Summary("gserve_wal_group_commit_records", "",
		"records committed per WAL fsync (1 for a primary's append, the mirrored batch on a follower)", m.syncRecords, 1)
	m.reg.Gauge("gserve_store_open_seconds", "",
		"wall time of the startup store open, log replay included (0 without -data)",
		func() float64 { return m.storeOpenSeconds })
	return m
}

// walObserver is the hook wired into WALOptions.SyncObserver. It runs
// with the log locked, so it only touches wait-free histograms.
func (m *serverMetrics) walObserver() func(d time.Duration, records int) {
	return func(d time.Duration, records int) {
		m.fsync.Observe(int64(d))
		m.syncRecords.Observe(int64(records))
	}
}

// summary returns (registering on first use) the latency summary for
// one label value of a per-endpoint or per-stage series. Lazy
// registration keeps a series absent until it is first observed, so the
// golden scrape shape of an idle server is unchanged.
func (m *serverMetrics) summary(name, key, value, help string) *metrics.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[[2]string{name, value}]
	if !ok {
		h = &metrics.Histogram{}
		m.latency[[2]string{name, value}] = h
		m.reg.Summary(name, fmt.Sprintf("%s=%q", key, value), help, h, 1e-9)
	}
	return h
}

// observeRequest records one finished request into the per-endpoint
// latency summary and the endpoint/code request counter.
func (m *serverMetrics) observeRequest(endpoint string, code int, d time.Duration) {
	m.summary("gserve_http_request_duration_seconds", "endpoint", endpoint, "request latency by endpoint").Observe(int64(d))
	m.reg.Counter("gserve_http_requests_total",
		fmt.Sprintf("code=\"%d\",endpoint=%q", code, endpoint),
		"requests served by endpoint and status code").Inc()
}

// observePipeline records one finished pipeline query: per-stage
// latencies and the pushdown/fallback split of its filter predicates.
// The counters register on first use for the same golden-scrape reason.
func (m *serverMetrics) observePipeline(st pipeline.Stats) {
	for _, t := range st.Stages {
		m.summary("gserve_pipeline_stage_duration_seconds", "stage", t.Stage, "pipeline stage latency by stage").Observe(int64(t.ElapsedMS * 1e6))
	}
	for outcome, n := range map[string]int{"pushdown": st.PushedPredicates, "fallback": st.FallbackPredicates} {
		if n > 0 {
			m.reg.Counter("gserve_pipeline_pushdown_total", fmt.Sprintf("outcome=%q", outcome),
				"filter predicates ANDed into the keep bitset (pushdown) vs evaluated per graph (fallback)").Add(int64(n))
		}
	}
}

// rejectCounter returns the admission-reject counter for one lane.
func (m *serverMetrics) rejectCounter(collection, lane string) *metrics.Counter {
	return m.reg.Counter("gserve_admission_rejected_total",
		fmt.Sprintf("collection=%q,lane=%q", collection, lane),
		"requests shed with 429 because the lane was full")
}

// registerStoreGauges adds the gauges that read live store state at
// scrape time: aggregate cache hit ratio and the most records one fsync
// of any collection's WAL has committed.
func (s *server) registerStoreGauges() {
	s.metrics.reg.Gauge("gserve_cache_hit_ratio", "",
		"query-cache hits / lookups across all collections (0 when idle)",
		func() float64 {
			var hits, total int64
			for _, c := range s.collections() {
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
		"most records one WAL fsync has committed (1 on a primary, the largest mirrored batch on a follower)",
		func() float64 {
			max := 0
			for _, c := range s.collections() {
				if st := c.Stats(); st.WAL != nil && st.WAL.MaxBatch > max {
					max = st.WAL.MaxBatch
				}
			}
			return float64(max)
		})
}

// statusRecorder captures the response status and the endpoint label
// (set by the route the request matched) for the request metrics.
// Unwrap keeps http.NewResponseController working through it (the
// ingest handler flushes and the long routes lift deadlines).
type statusRecorder struct {
	http.ResponseWriter
	status int
	label  string
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

// handleMetrics serves the Prometheus scrape.
func (s *server) handleMetrics(cl *call) {
	s.metrics.reg.ServeHTTP(cl.w, cl.r)
}
