// Package repro is a from-scratch Go reproduction of "Leveraging Graph
// Dimensions in Online Graph Search" (Zhu, Yu, Qin; PVLDB 8(1), 2014).
//
// The public API lives in the graphdim subpackage: BuildContext runs the
// parallel offline path (gSpan mining, pairwise MCS matrix, DSPM/DSPMap
// dimension selection) under an Options.Workers bound with cancellation
// and per-stage progress, and the resulting Index serves concurrent
// Search/SearchBatch readers (per-query engine choice: mapped, verified,
// exact), grows online via Add/Remove without re-running DSPM, and
// persists via WriteTo/ReadIndex as one v4 segment file.
// Above the single index sits the Store management layer: named
// collections sharded across parallel indexes by hashed graph placement,
// fan-out search with a global top-k merge over the collection's one
// dimension set, a Compact that reclaims tombstoned slots without
// changing a ranking while readers keep serving, and Save/OpenStore
// directory persistence with a manifest. Stores opened against a data
// directory (OpenStore, CreateStore, OpenOrCreateStore) are durable:
// adds and removes are write-ahead logged (internal/wal) and fsynced
// before they publish, Checkpoint persists a snapshot and truncates the
// replayed log, and reopening replays the tail — a kill at any instant
// recovers exactly the acknowledged writes. Concurrent writers share
// fsyncs through the log's group commit: the first appender to arrive
// leads the group, so the durability tax divides across however many
// writes are in flight. cmd/gserve exposes a store over a versioned /v1
// HTTP API (its -data flag is the durable deployment path, with
// periodic, shutdown, and on-demand checkpoints) with graceful
// shutdown, streaming NDJSON bulk ingest (one group-committed fsync per
// batch), per-collection read/write admission lanes that shed overload
// with 429 + Retry-After instead of queueing (internal/pool.Gate), and
// Prometheus-text observability on /metrics (internal/metrics: a
// dependency-free log-linear histogram registry — per-endpoint
// p50/p99/p999, WAL fsync timings, group-commit batch sizes, admission
// rejects, cache hit ratio). Composable query pipelines
// (internal/pipeline) run filter → search → aggregate chains in one
// request: declarative filter stages push down into the posting lists
// (and serialize canonically, so filtered searches stay cacheable where
// opaque Predicate closures cannot), a similarity stage wraps the
// three-engine Search, and streaming aggregates (count, group-by,
// top-k, limit) fold per shard and merge exactly — surfaced as
// POST /v1/collections/{name}/query, Collection.Query in Go, and the
// offline cmd/gq binary. Under every one of those query paths the
// mapped scan runs a structure-of-arrays kernel (internal/vecspace's
// tile-packed Block, built lazily per snapshot and extended
// copy-on-write): one query word streams against 16 graphs per
// popcount iteration, a bounded heap selects the top-k without sorting
// the database, and pooled scratch arenas hold a warm query at O(1)
// allocations — with rankings bit-identical to the scalar reference,
// pinned by a randomized kernel-equivalence suite and an allocation
// regression test (DESIGN.md §14). cmd/gload drives the HTTP surface with an
// open-loop mixed workload (searches, writes, pipelines) and reports
// the latency distribution; the other commands (gen, mine, dspm,
// gsearch, figures, benchjson) cover the rest of the pipeline — see
// README.md for a tour.
//
// The paper's algorithms and substrates are implemented under internal/
// (see DESIGN.md for the full inventory and the concurrency model). The
// benchmarks in bench_test.go regenerate every figure of the paper's
// evaluation section plus the worker-scaling benches; `make bench`
// runs them into a machine-readable JSON record under /tmp, and bench/
// is the benchmark changes are judged by; EXPERIMENTS.md records the
// measured shapes against the paper's.
package repro
