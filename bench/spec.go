package main

import (
	"repro/graphdim"
)

// Workload names. They are stable: BENCHMARK.json, the README and later
// issues cite them.
const (
	wScanDense   = "scan_dense"
	wVerifyTopK  = "verify_topk"
	wPipelineHot = "pipeline_hot"
	wIngestMixed = "ingest_mixed"
)

var workloadNames = []string{wScanDense, wVerifyTopK, wPipelineHot, wIngestMixed}

// Fixed parameters shared by every workload (see README.md, "Sizes and
// seeds").
const (
	// dimSeed seeds the sample the dimensions are selected from and
	// DSPMap's own random choices. It is NOT derived from -seed: which
	// subgraphs are selected moves the per-graph VF2 cost by ±30%, which
	// would drown every other signal in seed-to-seed spread. -seed drives
	// the corpus, queries, pipelines, write stream and popularity draws.
	dimSeed = 7
	// chemScaffolds is the number of ring-system templates a generator
	// call draws molecules from; 64 (the library default is 8) makes one
	// seed's corpus statistically like another's.
	chemScaffolds = 64

	dimensions = 64  // p
	shards     = 2   // per collection
	topK       = 10  // K of every search
	verifyFac  = 3   // EngineVerified candidate multiplier
	mcsBudget  = 500 // branch-and-bound nodes per MCS call
	tau        = 0.05
	batchSize  = 8 // graphs per durable Add

	truthIDs     = 100 // ids [0, truthIDs) are the exact-truth subset
	truthQueries = 320 // queries averaged into precision_at_10

	collectionName = "bench"
)

// scale holds every size that -smoke shrinks.
type scale struct {
	sample       int // graphs DSPMap selects dimensions from
	corpusBig    int // scan_dense corpus (added with Index.Add)
	corpusSmall  int // corpus of the other three workloads
	queries      int // distinct dense queries
	pipelines    int // distinct pipeline documents
	cacheEntries int // pipeline_hot query cache
	checks       int // operations compared against the oracle before timing
	repeats      int // repetitions of a measured run; their timed parts are pooled (stats.go: calm, brisk)
	warmup       float64
	burstAdds    int // durable Adds timed after each window, in reopens+1 bursts
	chunkAdds    int // a burst is summarised in chunks of this many Adds; divides a burst
	tailAdds     int // Adds left in the WAL behind the last checkpoint
	reopens      int // OpenStore repetitions on each unclean copy
	checkpointAt int // ingest_mixed: Checkpoint after this many Adds
	tracedOps    int // ops of the traced pass
	probeOps     int // ops an off-path layer probe replays
}

var fullScale = scale{
	sample: 200, corpusBig: 40000, corpusSmall: 8000,
	queries: 2000, pipelines: 10000, cacheEntries: 4096,
	checks: 200, repeats: 3, warmup: 0.7,
	burstAdds: 900, chunkAdds: 50, tailAdds: 100, reopens: 2, checkpointAt: 400,
	tracedOps: 1000, probeOps: 64,
}

// smokeScale shrinks corpora ×20; tests run it. Smoke numbers are never
// appended to a results file.
var smokeScale = scale{
	sample: 100, corpusBig: 2000, corpusSmall: 400,
	queries: 100, pipelines: 500, cacheEntries: 128,
	checks: 20, repeats: 1, warmup: 0.1,
	burstAdds: 20, chunkAdds: 5, tailAdds: 5, reopens: 1, checkpointAt: 20,
	tracedOps: 60, probeOps: 8,
}

// workloadSpec is what distinguishes one workload from another.
type workloadSpec struct {
	name   string
	corpus func(scale) int
	engine graphdim.Engine
	cache  bool // collection carries a query cache
	pipes  bool // ops are pipeline documents, not bare searches
	writer bool // one client replays the write stream during the window
}

func specOf(name string) (workloadSpec, bool) {
	small := func(s scale) int { return s.corpusSmall }
	switch name {
	case wScanDense:
		return workloadSpec{name: name, corpus: func(s scale) int { return s.corpusBig }}, true
	case wVerifyTopK:
		return workloadSpec{name: name, corpus: small, engine: graphdim.EngineVerified}, true
	case wPipelineHot:
		return workloadSpec{name: name, corpus: small, cache: true, pipes: true}, true
	case wIngestMixed:
		return workloadSpec{name: name, corpus: small, writer: true}, true
	}
	return workloadSpec{}, false
}

func (w workloadSpec) searchOptions() graphdim.SearchOptions {
	return graphdim.SearchOptions{K: topK, Engine: w.engine, VerifyFactor: verifyFac}
}

func buildOptions() graphdim.Options {
	return graphdim.Options{
		Dimensions: dimensions,
		Tau:        tau,
		Metric:     graphdim.Delta2,
		Algorithm:  graphdim.DSPMap,
		MCSBudget:  mcsBudget,
		Seed:       dimSeed,
	}
}

// metricDef names one metric the program prints. BENCHMARK.json lists
// exactly these names and units (names_test.go holds the two together).
type metricDef struct {
	name, unit string
}

// endToEnd is printed by a measured run (-trace 0) of every workload.
var endToEnd = []metricDef{
	{"read_p50_ms", "ms"},
	{"read_ops_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_graphs_s", "1/s"},
	{"reopen_ms", "ms"},
	{"disk_bytes_per_graph", "bytes"},
	{"precision_at_10", "ratio"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is printed by a traced run (-trace 1) of every workload.
// Times are the cost of the layer's exported call on this workload's
// inputs — replayed on the op's path where the workload uses the layer,
// probed off the path otherwise; counts, ratios and shares are on-path
// only, so they say whether the workload pays that cost.
var perLayer = []metricDef{
	// map
	{"vecspace.map_us", "us"},
	{"subiso.contains_ns", "ns"},
	{"subiso.vf2_calls_per_op", "count"},
	{"vecspace.matched_dims", "count"},
	{"graphdim.add_map_us", "us"},
	// plan
	{"posting.plan_us", "us"},
	{"posting.pruned_ratio", "ratio"},
	{"posting.matched_ids_per_op", "count"},
	// scan / top-k
	{"topk.scan_us", "us"},
	{"topk.candidates_per_op", "count"},
	{"topk.scored_ratio", "ratio"},
	{"vecspace.hamming_ns_per_vec", "ns"},
	{"vecspace.scan_gbps", "GB/s"},
	{"bench.copy_gbps", "GB/s"},
	// verify
	{"mcs.verify_us", "us"},
	{"mcs.calls_per_op", "count"},
	{"mcs.call_us", "us"},
	{"mcs.nodes_per_call", "count"},
	{"mcs.budget_exhausted_ratio", "ratio"},
	{"topk.precision_at_10_mapped", "ratio"},
	// fan-out / merge / cache
	{"graphdim.index_search_us", "us"},
	{"graphdim.collection_search_us", "us"},
	{"graphdim.cache_hit_ratio", "ratio"},
	{"graphdim.cache_hit_us", "us"},
	{"graphdim.cache_evictions", "count"},
	// pipeline
	{"pipeline.parse_us", "us"},
	{"pipeline.compile_us", "us"},
	{"pipeline.pushed_ratio", "ratio"},
	{"pipeline.rows_matched_per_op", "count"},
	{"pipeline.aggregate_us", "us"},
	// write path
	{"graphdim.add_durable_us", "us"},
	{"graphdim.add_volatile_us", "us"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.records_per_fsync", "count"},
	{"wal.bytes_per_graph", "bytes"},
	{"bench.fsync_floor_us", "us"},
	// background / storage
	{"graphdim.checkpoint_ms", "ms"},
	{"segment.write_mb_s", "MB/s"},
	{"segment.bytes_per_graph", "bytes"},
	{"graphdim.read_p99_in_checkpoint_ms", "ms"},
	{"graphdim.reopen_ms", "ms"},
	{"segment.open_ms", "ms"},
	{"segment.graph_decode_us", "us"},
	{"wal.replay_ms", "ms"},
	{"graphdim.replay_apply_ms", "ms"},
	// set-up and runtime
	{"gspan.mine_s", "s"},
	{"core.select_s", "s"},
	{"vecspace.mapall_s", "s"},
	{"graphdim.load_add_s", "s"},
	{"graphdim.create_store_s", "s"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_pause_ms", "ms"},
	// tails the end-to-end set leaves out (see README, "Demoted")
	{"bench.read_p99_ms", "ms"},
	{"bench.write_p99_ms", "ms"},
	// the trace itself
	{"bench.attributed_share", "ratio"},
	{"bench.write_attributed_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
}
