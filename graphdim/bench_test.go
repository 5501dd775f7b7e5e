package graphdim

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// Benchmarks of the paths no bench/ workload reaches: the build and batch
// worker pools, shard counts other than 2, single-graph and bulk durable
// adds, dimension filters, and a cold open. BenchmarkStoreAdd and
// BenchmarkIngest live in addcost_test.go beside their shared set-up.

// sampledIndex builds the DSPMap index the pipeline and cold-open
// benchmarks share: n synthetic graphs, dimensions selected on the first
// 200 and the rest mapped on by Index.Add, as bench/ sets up its corpora.
// Selecting on all n selects the same p = 48 dimensions in about a
// minute.
func sampledIndex(b *testing.B, n int) ([]*Graph, *Index) {
	b.Helper()
	db := dataset.Synthetic(dataset.SynthConfig{N: n, AvgEdges: 10, Labels: 6, Seed: 11})
	idx, err := Build(db[:200], Options{
		Dimensions:      48,
		Tau:             0.05,
		MaxPatternEdges: 3,
		MCSBudget:       500,
		Algorithm:       DSPMap,
		Seed:            1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := idx.Add(db[200:]...); err != nil {
		b.Fatal(err)
	}
	return db, idx
}

// BenchmarkBuildWorkers measures the end-to-end offline build
// (mining + MCS matrix + DSPM + vector materialization) on the synthetic
// dataset at Workers: 1 versus Workers: NumCPU. On a multi-core machine
// the parallel build should approach a linear speedup: the run time is
// dominated by the O(n²) independent MCS searches.
func BenchmarkBuildWorkers(b *testing.B) {
	db := dataset.Synthetic(dataset.SynthConfig{N: 60, AvgEdges: 12, Labels: 8, Seed: 5})
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Build(db, Options{
					Dimensions: 30,
					Tau:        0.1,
					MCSBudget:  2000,
					Workers:    workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// DSPMap on bench's selection sample (TestDSPMapSelectionGolden's
	// inputs): select-ms is the dimension-selection stage alone, from the
	// StageDSPM edge to the StageVectors edge, as bench/ times it.
	sample := benchSelectionSample()
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("dspmap/workers=%d", workers), func(b *testing.B) {
			var sel time.Duration
			for i := 0; i < b.N; i++ {
				opt := benchSelectionOptions(workers)
				var start time.Time
				opt.Progress = func(stage BuildStage, _, _ int) {
					switch {
					case stage == StageDSPM && start.IsZero():
						start = time.Now()
					case stage == StageVectors && !start.IsZero():
						sel += time.Since(start)
						start = time.Time{}
					}
				}
				if _, err := Build(sample, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sel.Microseconds())/1e3/float64(b.N), "select-ms")
		})
	}
}

// BenchmarkStoreShardedSearch measures one mapped query through the Store
// fan-out at increasing shard counts over the same database — the
// per-query cost of sharding (per-shard VF2 mapping + heap merge) that
// buys parallel Add/persistence/compaction.
func BenchmarkStoreShardedSearch(b *testing.B) {
	idx := addBase(b, 60) // the 60 built graphs, as built
	q := idx.snap.Load().db[7]
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		store := NewStore(StoreOptions{})
		coll, err := store.CreateFromIndex(fmt.Sprintf("s%d", shards), idx, CollectionOptions{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coll.Search(ctx, q, SearchOptions{K: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
		store.Close()
	}
}

// BenchmarkPipelineFilterPushdown times one selective structural
// constraint (vertex label 0 at least 5 times) over 8,000 graphs,
// expressed as a declarative Filter — answered by the label index, so
// only matching ids are ever scored — versus an equivalent Predicate
// closure, which must visit every graph and count labels at scan time.
// Two more rounds time the dimension predicates, which one pass over the
// vector tiles answers: dims_all plus a ones floor, and dims_any over
// three dimensions.
func BenchmarkPipelineFilterPushdown(b *testing.B) {
	db, idx := sampledIndex(b, 8000)
	filters := []*pipeline.Filter{{
		VertexLabels: []pipeline.LabelCount{{Label: 0, MinCount: 5}},
	}}
	pred := func(_ int, g *Graph) bool {
		n := 0
		for v := 0; v < g.N(); v++ {
			if g.VertexLabel(v) == 0 {
				if n++; n >= 5 {
					return true
				}
			}
		}
		return false
	}
	matching := 0
	for _, g := range db {
		if pred(0, g) {
			matching++
		}
	}
	b.Logf("filter selects %d of %d graphs", matching, len(db))
	// A dense query (a database member, matching many dimensions): a
	// declarative filter's restriction reaches the scan as skip bits,
	// where a closure must be asked about every id that could enter the
	// heap.
	q := db[7]
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		opt  SearchOptions
	}{
		{"pushdown", SearchOptions{K: 10, Filters: filters}},
		{"predicate", SearchOptions{K: 10, Predicate: pred}},
		{"dims", SearchOptions{K: 10, Filters: []*pipeline.Filter{{DimsAll: []int{0, 1}, MinOnes: 8}}}},
		{"dims_any", SearchOptions{K: 10, Filters: []*pipeline.Filter{{DimsAny: []int{5, 20, 40}}}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(ctx, q, bc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdOpen measures a cold open: time to OpenStore a
// checkpointed 3,000-graph, 2-shard collection — checksumming every
// shard file — plus the steady heap it leaves behind (heapMB/op; file
// pages the mapping touches live in the page cache, not the Go heap).
// One search per open keeps the measurement honest: the store must be
// serving, not just opened.
func BenchmarkColdOpen(b *testing.B) {
	dir := b.TempDir()
	_, idx := sampledIndex(b, 3000)
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 2}); err != nil {
		b.Fatal(err)
	}
	// The shard files are segments and the WAL tail is empty.
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	s.Close()
	q := dataset.Synthetic(dataset.SynthConfig{N: 1, AvgEdges: 8, Labels: 6, Seed: 3})[0]
	ctx := context.Background()
	var heapGrowth uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		b.StartTimer()

		s, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		c, _ := s.Collection("c")
		if _, err := c.Search(ctx, q, SearchOptions{K: 10}); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > before {
			heapGrowth += ms.HeapAlloc - before
		}
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(heapGrowth)/float64(b.N)/(1<<20), "heapMB/op")
}
