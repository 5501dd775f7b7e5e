# Developer entry points. CI runs these targets (see
# .github/workflows/ci.yml): a local `make check race` is exactly what
# its check step and race job gate on.

GO        ?= go
# BENCHTIME controls measurement cost: 1x smoke-runs every benchmark,
# larger values (e.g. 2s) give stable numbers.
BENCHTIME ?= 1x
# BENCH_OUT is where the JSON benchmark record lands. It defaults outside
# the repository: a one-iteration record is noise, not a trajectory (the
# numbers changes are judged by come from bench/, see bench/README.md).
BENCH_OUT ?= /tmp/graphdim-bench.json
# FUZZTIME is how long `make fuzz` runs each native fuzz target.
FUZZTIME ?= 10s
# COVER_MIN gates `make cover`: the combined statement coverage of the
# public API package, the posting accelerator, the pipeline stage DAG,
# the write-ahead log, the replication client, the metrics registry, and
# the HTTP layer (ingest + admission + replication handlers).
COVER_MIN ?= 80
# LOAD_DURATION / LOAD_MAX_P99_MS parameterize `make loadtest` and
# `make loadtest-repl`; LOAD_MAX_LAG bounds how long the follower may
# take to drain the write stream once the repl load run stops.
LOAD_DURATION   ?= 5s
LOAD_MAX_P99_MS ?= 250
LOAD_MAX_LAG    ?= 10s

.PHONY: build test race fuzz vet check lines bench cover loadtest loadtest-repl

build:
	$(GO) build ./...

# -shuffle=on randomizes test order every run, so inter-test state
# dependencies cannot hide; the seed prints on failure for replay.
test:
	$(GO) test -shuffle=on ./...

# cover enforces the coverage floor on the packages this repository's
# correctness story leans on hardest: the graphdim API (engines, cache,
# store, persistence, durability), the posting-list accelerator, the
# pipeline stage DAG (parsing, filter compilation, aggregation), the
# write-ahead log, the metrics registry, and the gserve HTTP layer
# (ingest streaming and admission control live there).
cover:
	$(GO) test -coverprofile=cover.out ./graphdim ./internal/posting ./internal/pipeline ./internal/segment ./internal/wal ./internal/repl ./internal/metrics ./cmd/gserve
	@$(GO) tool cover -func=cover.out | awk '$$1 == "total:" { \
		sub(/%/, "", $$3); \
		if ($$3 + 0 < $(COVER_MIN)) { printf "coverage %.1f%% is below the %d%% floor\n", $$3, $(COVER_MIN); exit 1 } \
		else printf "coverage %.1f%% (floor $(COVER_MIN)%%)\n", $$3 }'

# The concurrency-heavy packages: shard fan-out and the one snapshot a
# shard publishes under readers — by Add, Remove and Compact's repack;
# ./graphdim/... includes TestReadersSeeOneShardState, the property test
# that holds every id a racing reader is shown to the graph it names —
# the worker budget, the write-ahead log, the HTTP layer on top of them,
# the scan kernel (copy-on-write block appends under readers, pooled
# scratch arenas), the mmap segment layer (shared decoded-graph caches,
# finalizer unmap), the VF2 matcher (compiled patterns shared by every
# query and Add, one scratch per caller), and the MCS solver (arenas
# pooled across the fan-out's goroutines and the δ matrix's workers).
race:
	$(GO) test -race -count=1 ./graphdim/... ./cmd/gserve/... ./internal/pipeline/... ./internal/pool/... ./internal/wal/... ./internal/repl/... ./internal/topk/... ./internal/vecspace/... ./internal/segment/... ./internal/subiso/... ./internal/mcs/...

# fuzz runs each native fuzz target for $(FUZZTIME), one at a time (go
# test -fuzz takes one target per package run): the segment reader, the
# compiled VF2 pattern against brute force, the SoA pack round trip, the
# graph text format, and the mapper's label-count precheck against VF2.
# `go test` alone runs only their seed corpora.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadIndex$$' -fuzztime $(FUZZTIME) ./graphdim
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledPattern$$' -fuzztime $(FUZZTIME) ./internal/subiso
	$(GO) test -run '^$$' -fuzz '^FuzzBlockRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/vecspace
	$(GO) test -run '^$$' -fuzz '^FuzzTextRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzMapperMatchesContains$$' -fuzztime $(FUZZTIME) ./internal/vecspace

vet:
	$(GO) vet ./...

# check is the first CI step. A Go source matched by .gitignore exists on
# the author's disk but not in git, so every local command passes while
# a fresh clone fails to build — the list must be empty. Then gofmt (any
# file it would rewrite fails the target) and go vet.
check:
	@ignored=$$(git ls-files -o -i --exclude-standard -- '*.go'); \
	if [ -n "$$ignored" ]; then \
		echo "Go sources matched by .gitignore (never committed):"; echo "$$ignored"; exit 1; \
	fi
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# lines prints the non-test Go lines outside bench/ per package and in
# total, over the files git tracks or would track — the number ROADMAP's
# rule judges a simplicity change by. For one change's delta run
# `git diff --numstat <parent> -- '*.go' ':!*_test.go' ':!bench'`.
lines:
	@git ls-files -co --exclude-standard -- '*.go' ':!*_test.go' ':!bench' | \
		while read -r f; do [ -f "$$f" ] && wc -l "$$f"; done | awk ' \
		{ dir = $$2; if (!sub(/\/[^\/]*$$/, "", dir)) dir = "."; lines[dir] += $$1; total += $$1 } \
		END { for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'

# bench runs every benchmark and writes $(BENCH_OUT): one JSON record per
# op with iterations, ns/op, B/op and allocs/op. Two steps, not a pipe,
# so a panicking benchmark fails the target even after earlier benchmarks
# emitted parseable lines.
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run '^$$' ./... > $(BENCH_OUT).txt
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) < $(BENCH_OUT).txt
	@rm -f $(BENCH_OUT).txt

# loadtest runs the open-loop mixed workload (search/add/ingest) against
# an in-process gserve for $(LOAD_DURATION) and fails on any request
# error or an overall p99 above $(LOAD_MAX_P99_MS) milliseconds. Shed
# 429s are admission control working and do not fail the run.
loadtest:
	GLOAD_DURATION=$(LOAD_DURATION) GLOAD_MAX_P99_MS=$(LOAD_MAX_P99_MS) \
		$(GO) test -run '^TestLoadSmoke$$' -count=1 -v ./cmd/gserve

# loadtest-repl runs the same open-loop workload against an in-process
# primary/follower pair: writes land on the primary, a follower_search
# share reads from the replica. Fails on any request error, an overall
# p99 above $(LOAD_MAX_P99_MS), or a follower that cannot drain the
# write stream within $(LOAD_MAX_LAG) of the load stopping.
loadtest-repl:
	GLOAD_DURATION=$(LOAD_DURATION) GLOAD_MAX_P99_MS=$(LOAD_MAX_P99_MS) GLOAD_MAX_LAG=$(LOAD_MAX_LAG) \
		$(GO) test -run '^TestLoadReplSmoke$$' -count=1 -v ./cmd/gserve
