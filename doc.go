// Package repro is a from-scratch Go reproduction of "Leveraging Graph
// Dimensions in Online Graph Search" (Zhu, Yu, Qin; PVLDB 8(1), 2014).
//
// The public API lives in the graphdim subpackage: BuildContext runs the
// parallel offline path (gSpan mining, pairwise MCS matrix, DSPM/DSPMap
// dimension selection) under an Options.Workers bound with cancellation
// and per-stage progress, and returns an Index — the selected dimension
// set with the database mapped onto it. The Store management layer serves
// it: named collections sharded across parallel indexes by hashed graph
// placement, concurrent fan-out Search readers (per-query engine choice:
// mapped, verified, exact) with a global top-k merge over the
// collection's one dimension set, online growth via Collection.Add and
// Collection.Remove without re-running DSPM, a Compact that reclaims
// tombstoned slots without changing a ranking while readers keep
// serving, and the one persisted
// form of an index: a store directory (a manifest plus one v6 segment
// file per shard) that only Checkpoint writes and OpenStore serves.
// Stores opened against a data directory (OpenStore, CreateStore,
// OpenOrCreateStore) are durable: adds and removes are write-ahead
// logged (internal/wal) and fsynced before they publish, Checkpoint
// persists a snapshot and truncates the replayed log, and reopening
// replays the tail — a kill at any instant
// recovers exactly the acknowledged writes. Each add or remove is one
// record and one fsync, with a collection's writers serialized by its
// writer lock; bulk ingest amortizes the fsync by putting a batch of
// graphs in one record. cmd/gserve exposes a store over a versioned /v1
// HTTP API (its -data flag is the durable deployment path, with
// periodic, shutdown, and on-demand checkpoints) with graceful
// shutdown, streaming NDJSON bulk ingest (one fsync per batch), per-collection read/write admission lanes that shed overload
// with 429 + Retry-After instead of queueing (internal/pool.Gate), and
// Prometheus-text observability on /metrics (internal/metrics: a
// dependency-free log-linear histogram registry — per-endpoint
// p50/p99/p999, WAL fsync timings, records per fsync, admission
// rejects, cache hit ratio). Composable query pipelines
// (internal/pipeline) run filter → search → aggregate chains in one
// request: declarative filter stages push down into one keep bitset —
// dimension predicates read the vector tiles, label predicates the label
// lists — that reaches the scan as skip bits beside the tombstones (and
// serialize canonically, so a whole pipeline result — a search's rows, a
// count, a group-by — caches under a key built from the parsed plan,
// where opaque Predicate closures cannot), a similarity stage wraps the
// three-engine Search, and streaming aggregates (count, group-by,
// top-k, limit) fold per shard and merge exactly — surfaced as
// POST /v1/collections/{name}/query, Collection.Query in Go, and the
// offline cmd/gq binary. Under every one of those query paths one
// mapped scan runs a structure-of-arrays kernel (internal/vecspace's
// tile-packed Block, built with each snapshot and extended
// copy-on-write): one query word streams against 16 graphs per
// popcount iteration, a bounded heap selects the top-k without sorting
// the database, and pooled scratch arenas hold a warm query at O(1)
// allocations — with rankings bit-identical to the scalar reference,
// pinned by a randomized kernel-equivalence suite and an allocation
// regression test (DESIGN.md §14). cmd/gload drives the HTTP surface with an
// open-loop mixed workload (searches, writes, pipelines) and reports
// the latency distribution; the other commands (gen, mine, dspm — which
// writes a store directory — gsearch, figures) cover the rest
// of the pipeline — see README.md for a tour.
//
// The paper's algorithms and substrates are implemented under internal/
// (see DESIGN.md for the full inventory and the concurrency model).
// cmd/figures regenerates every figure of the paper's evaluation section,
// and internal/experiments' TestFig* tests hold their shapes; bench/ is
// the benchmark changes are judged by, `make bench` smoke-runs the
// package benchmarks, and EXPERIMENTS.md records the measured shapes
// against the paper's.
package repro
