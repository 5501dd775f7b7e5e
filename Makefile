# Developer entry points. CI runs these targets (see
# .github/workflows/ci.yml): a local `make check race` is exactly what
# its check step and race job gate on.

GO        ?= go
# BENCHTIME controls measurement cost: 1x smoke-runs every benchmark,
# larger values (e.g. 2s) give stable numbers.
BENCHTIME ?= 1x
# FUZZTIME is how long `make fuzz` runs each native fuzz target.
FUZZTIME ?= 10s
# COVER_MIN gates `make cover`: the combined statement coverage of the
# public API package, the label index (internal/posting), the pipeline
# stage DAG, the segment format, the write-ahead log, the replication
# client, the metrics registry, and the HTTP layer (ingest + admission +
# replication handlers).
COVER_MIN ?= 80
# LOAD_DURATION / LOAD_MAX_P99_MS parameterize `make loadtest` and
# `make loadtest-repl`; LOAD_MAX_LAG bounds how long the follower may
# take to drain the write stream once the repl load run stops.
LOAD_DURATION   ?= 5s
LOAD_MAX_P99_MS ?= 250
LOAD_MAX_LAG    ?= 10s

.PHONY: build test race fuzz vet check lines bench cover cli loadtest loadtest-repl

build:
	$(GO) build ./...

# -shuffle=on randomizes test order every run, so inter-test state
# dependencies cannot hide; the seed prints on failure for replay.
test:
	$(GO) test -shuffle=on ./...

# cover enforces the coverage floor on the packages this repository's
# correctness story leans on hardest: the graphdim API (engines, cache,
# store, persistence, durability), the label index (internal/posting),
# the pipeline stage DAG (parsing, filter compilation, aggregation), the
# segment format, the write-ahead log, the replication client, the
# metrics registry, and the gserve HTTP layer (ingest streaming and
# admission control live there).
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
# query and Add, one scratch per caller), the MCS solver (arenas
# pooled across the fan-out's goroutines and the δ matrix's workers),
# DSPM (DSPMap's sub-problems on the build's worker pool) and gSpan
# (root subtrees mined in parallel).
race:
	$(GO) test -race -count=1 ./graphdim/... ./cmd/gserve/... ./internal/pipeline/... ./internal/pool/... ./internal/wal/... ./internal/repl/... ./internal/topk/... ./internal/vecspace/... ./internal/segment/... ./internal/subiso/... ./internal/mcs/... ./internal/core/... ./internal/gspan/...

# fuzz runs each native fuzz target for $(FUZZTIME), one at a time (go
# test -fuzz takes one target per package run): the segment decoder
# (whose re-encoding is a fixed point, and which refuses every retired
# format as legacy), the compiled VF2 pattern against
# brute force, the SoA pack round trip, the threshold-fused flat scan
# against the scalar ranking, the graph text format, the mapper's
# label-count precheck against VF2, the follower's replication stream
# parser (which refuses every frame no encoder writes, the retired type-3
# amendment among them), the pipeline document parser (whose accepted documents plan
# or fail with a stage error, and survive a JSON round trip), the filter
# compiler against a brute-force evaluation, the wire graph shape
# the search stage and the ingest endpoint share, and the presized binary
# graph decoder against the AddVertex/AddEdge loop.
# `go test` alone runs only their seed corpora. The segment decoder's
# inputs are kilobytes long, so its minimization is capped at 200 runs
# per new input: the default 60 s would spend most of FUZZTIME there.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/segment
	$(GO) test -run '^$$' -fuzz '^FuzzCompiledPattern$$' -fuzztime $(FUZZTIME) ./internal/subiso
	$(GO) test -run '^$$' -fuzz '^FuzzBlockRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/vecspace
	$(GO) test -run '^$$' -fuzz '^FuzzMappedScan$$' -fuzztime $(FUZZTIME) ./internal/topk
	$(GO) test -run '^$$' -fuzz '^FuzzTextRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzMapperMatchesContains$$' -fuzztime $(FUZZTIME) ./internal/vecspace
	$(GO) test -run '^$$' -fuzz '^FuzzStreamReader$$' -fuzztime $(FUZZTIME) ./internal/repl
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzGraphSpec$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/graph

vet:
	$(GO) vet ./...

# cli builds dspm, gsearch, gq, gserve, gen and the quickstart and store
# examples into a temporary directory, runs both examples, and drives the
# commands over one store directory: gen writes the queries, dspm
# the store, gsearch (mapped and verified) and a gq count pipeline read
# it, gserve serves /healthz, a search and three adds, is killed with
# SIGKILL; gsearch must then open the stopped directory with the adds,
# gserve must come back with them, gsearch must be refused naming the
# lock while it runs, and gserve exits cleanly on SIGTERM
# (scripts/cli-smoke.sh).
cli:
	bash scripts/cli-smoke.sh

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
# rule judges a simplicity change by — and the subtotal of the four
# packages ROADMAP's size target counts. For one change's delta run
# `git diff --numstat <parent> -- '*.go' ':!*_test.go' ':!bench'`.
lines:
	@git ls-files -co --exclude-standard -- '*.go' ':!*_test.go' ':!bench' | \
		while read -r f; do [ -f "$$f" ] && wc -l "$$f"; done | awk -v tracked="graphdim internal/topk internal/vecspace cmd/gserve" ' \
		{ dir = $$2; if (!sub(/\/[^\/]*$$/, "", dir)) dir = "."; lines[dir] += $$1; total += $$1 } \
		END { for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total; \
			n = split(tracked, pkgs, " "); for (i = 1; i <= n; i++) sub_ += lines[pkgs[i]]; printf "%7d tracked (%s)\n", sub_, tracked }'

# bench runs every package benchmark and prints go test's text. It keeps
# no record: the numbers changes are judged by come from bench/ (see
# bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./...

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
