// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), plus ablation benches for the optimization
// techniques DESIGN.md calls out. Each BenchmarkFigN prints the same
// series the paper plots (at harness scale; see EXPERIMENTS.md) — run with
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/graphdim"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/gspan"
	"repro/internal/mcs"
	"repro/internal/subiso"
	"repro/internal/topk"
	"repro/internal/vecspace"
)

// benchConfig is the shared harness scale: large enough that the paper's
// shapes (who wins, by what factor) are visible, small enough that the
// whole suite runs in minutes.
func benchConfig() experiments.Config {
	return experiments.Config{
		DBSize:      100,
		QueryCount:  20,
		Tau:         0.05,
		MaxEdges:    6,
		MCSBudget:   2000,
		BaselineCap: 200,
		Seed:        1,
	}
}

var (
	benchOnce sync.Once
	benchChem *experiments.Dataset
	benchErr  error
)

func chemBench(b *testing.B) *experiments.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchChem, benchErr = experiments.BuildChemical(benchConfig())
	})
	if benchErr != nil {
		b.Fatalf("building benchmark dataset: %v", benchErr)
	}
	return benchChem
}

func benchP(ds *experiments.Dataset) int {
	p := ds.Index.P / 4
	if p < 10 {
		p = 10
	}
	return p
}

// BenchmarkFig1 regenerates Fig. 1: the dissimilarity/distance
// distribution histograms for DSPM and Original.
func BenchmarkFig1(b *testing.B) {
	ds := chemBench(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(ds, benchP(ds), 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Fig1(a) EMD to delta: DSPM=%.4f Original=%.4f",
				res.DSPMDB.EMD(res.DeltaDB), res.OriginalDB.EMD(res.DeltaDB))
			b.Logf("Fig1(b) EMD to delta: DSPM=%.4f Original=%.4f",
				res.DSPMQ.EMD(res.DeltaQ), res.OriginalQ.EMD(res.DeltaQ))
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2: total feature-correlation score of the
// selected dimensions, DSPM vs Sample, across p.
func BenchmarkFig2(b *testing.B) {
	ds := chemBench(b)
	m := ds.Index.P
	ps := []int{m / 5, 2 * m / 5, 3 * m / 5}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig2(ds, ps, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range pts {
				b.Logf("Fig2 p=%d: DSPM=%.1f Sample=%.1f", pt.P, pt.DSPMScore, pt.SampleScore)
			}
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4 (real dataset): precision, Kendall tau
// and rank distance vs top-k for all eight algorithms, relative to the
// fingerprint benchmark, plus indexing times.
func BenchmarkFig4(b *testing.B) {
	ds := chemBench(b)
	ks := []int{2, 4, 6, 8, 10}
	for i := 0; i < b.N; i++ {
		series := experiments.FigQuality(ds, experiments.StandardAlgorithms(1), benchP(ds), ks, true)
		if i == 0 {
			for _, s := range series {
				if s.Err != nil {
					b.Logf("Fig4 %-8s failed: %v", s.Name, s.Err)
					continue
				}
				q := s.ByK[10]
				b.Logf("Fig4 %-8s k=10: prec=%.3f tau=%.3f rd=%.3f indexing=%v",
					s.Name, q.Precision, q.KendallTau, q.RankDist, s.IndexingTime)
			}
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5 (synthetic dataset), normalized to the
// best algorithm per measure (the paper's synthetic benchmark).
func BenchmarkFig5(b *testing.B) {
	cfg := benchConfig()
	cfg.DBSize = 60
	cfg.QueryCount = 12
	ds, err := experiments.BuildSynthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ks := []int{2, 4, 6}
	for i := 0; i < b.N; i++ {
		series := experiments.FigQuality(ds, experiments.StandardAlgorithms(1), benchP(ds), ks, false)
		experiments.RelativeToBest(series, ks)
		if i == 0 {
			for _, s := range series {
				if s.Err != nil {
					b.Logf("Fig5 %-8s failed: %v", s.Name, s.Err)
					continue
				}
				b.Logf("Fig5 %-8s k=4: prec=%.3f indexing=%v", s.Name, s.ByK[4].Precision, s.IndexingTime)
			}
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6: synthetic precision and indexing time
// while varying graph size and density.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, edges := range []int{12, 16, 20} {
			cfg := benchConfig()
			cfg.DBSize = 40
			cfg.QueryCount = 8
			cfg.Synth.AvgEdges = edges
			ds, err := experiments.BuildSynthetic(cfg)
			if err != nil {
				b.Fatal(err)
			}
			algos := experiments.StandardAlgorithms(1)
			series := experiments.FigQuality(ds, []experiments.Algorithm{algos[0], algos[2]}, benchP(ds), []int{4}, false)
			if i == 0 {
				for _, s := range series {
					if s.Err == nil {
						b.Logf("Fig6 edges=%d %-8s prec=%.3f indexing=%v", edges, s.Name, s.ByK[4].Precision, s.IndexingTime)
					}
				}
			}
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7: query time by query size, DSPM vs
// Original vs Exact.
func BenchmarkFig7(b *testing.B) {
	ds := chemBench(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(ds, benchP(ds), []int{10, 14, 18, 21}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for bk := range res.Buckets {
				b.Logf("Fig7 |V(q)|=%s: DSPM=%v Original=%v Exact=%v",
					res.Buckets[bk], res.DSPM[bk], res.Original[bk], res.Exact[bk])
			}
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8: DSPMap precision and indexing time vs
// partition size, against the DSPM reference.
func BenchmarkFig8(b *testing.B) {
	ds := chemBench(b)
	n := len(ds.DB)
	bs := []int{n / 8, n / 4, n / 2}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig8(ds, benchP(ds), 4, bs, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range pts {
				b.Logf("Fig8 b=%d: DSPMap prec=%.3f (DSPM %.3f) indexing=%v (DSPM %v)",
					pt.B, pt.DSPMapPrec, pt.DSPMPrec, pt.DSPMapIndexing, pt.DSPMIndexing)
			}
		}
	}
}

// BenchmarkFig9 regenerates Fig. 9: scalability with |DG| — DSPMap
// precision/query/indexing against the other algorithms and the exact
// engine.
func BenchmarkFig9(b *testing.B) {
	cfg := benchConfig()
	cfg.QueryCount = 8
	algos := experiments.StandardAlgorithms(1)
	kept := []experiments.Algorithm{algos[0], algos[2]} // DSPM, Sample
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig9([]int{40, 80}, cfg, kept, 20, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range pts {
				b.Logf("Fig9 |DG|=%d: DSPMap query=%v exact query=%v DSPMap indexing=%v",
					pt.N, pt.DSPMapQuery, pt.ExactQuery, pt.IndexingByAlgo["DSPMap"])
			}
		}
	}
}

// ---- Ablation benches (DESIGN.md §5) ----

// BenchmarkAblationUpdateC compares the simplified Theorem 5.1 weight
// update against the naive Eq. (7) computation.
func BenchmarkAblationUpdateC(b *testing.B) {
	ds := chemBench(b)
	for _, naive := range []bool{false, true} {
		name := "simplified"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: benchP(ds), MaxIter: 5, NaiveUpdateC: naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationComputeObj compares the inverted-list Algorithm 4
// against a dense objective computation.
func BenchmarkAblationComputeObj(b *testing.B) {
	ds := chemBench(b)
	for _, dense := range []bool{false, true} {
		name := "invertedlist"
		if dense {
			name = "dense"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: benchP(ds), MaxIter: 5, DenseObjective: dense}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUpdateXbar compares the IF-list Algorithm 3 against the
// dense Guttman transform.
func BenchmarkAblationUpdateXbar(b *testing.B) {
	ds := chemBench(b)
	for _, dense := range []bool{false, true} {
		name := "iflist"
		if dense {
			name = "dense"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: benchP(ds), MaxIter: 5, DenseXbar: dense}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPartition compares Algorithm 7's similarity-driven
// partitioning against random partitioning inside DSPMap, reporting the
// resulting precision as well as cost.
func BenchmarkAblationPartition(b *testing.B) {
	ds := chemBench(b)
	dis := func(i, j int) float64 { return ds.Delta[i][j] }
	for _, random := range []bool{false, true} {
		name := "similarity"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			var prec float64
			for i := 0; i < b.N; i++ {
				res, err := core.DSPMap(ds.Index, dis, core.MapConfig{
					Core: core.Config{P: benchP(ds), MaxIter: 10},
					B:    len(ds.DB) / 4, Seed: 1, RandomPartition: random,
				})
				if err != nil {
					b.Fatal(err)
				}
				q, _ := experiments.EvaluateSelection(ds, res.Selected, 4)
				prec = q.Precision
			}
			b.ReportMetric(prec, "precision")
		})
	}
}

// ---- Component microbenches ----

// BenchmarkMine measures gSpan on the benchmark database.
func BenchmarkMine(b *testing.B) {
	ds := chemBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := gspan.Mine(ds.DB, gspan.Options{MinSupport: 8, MaxEdges: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCS measures one budgeted MCS dissimilarity on molecule-sized
// graphs.
func BenchmarkMCS(b *testing.B) {
	db := dataset.Chemical(dataset.ChemConfig{N: 2, Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcs.Delta2.DissimilarityBudget(db[0], db[1], mcs.Options{MaxNodes: 3000})
	}
}

// BenchmarkVF2 measures a single feature-containment test.
func BenchmarkVF2(b *testing.B) {
	ds := chemBench(b)
	pattern := ds.Features[len(ds.Features)/2].Graph
	target := ds.DB[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subiso.Contains(target, pattern)
	}
}

// BenchmarkMappedQuery measures the online query path (feature matching +
// vector scan), the latency plotted in Fig. 7(a).
func BenchmarkMappedQuery(b *testing.B) {
	ds := chemBench(b)
	res, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: benchP(ds)})
	if err != nil {
		b.Fatal(err)
	}
	sub := ds.Index.Subindex(res.Selected)
	vecs := make([]*vecspace.BitVector, sub.N)
	for i := range vecs {
		vecs[i] = sub.Vector(i)
	}
	dims := make([]*graph.Graph, len(res.Selected))
	for pos, r := range res.Selected {
		dims[pos] = ds.Features[r].Graph
	}
	mapper := vecspace.NewMapper(dims)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topk.Mapped(vecs, mapper.Map(ds.Queries[i%len(ds.Queries)]))
	}
}

// BenchmarkExactQuery measures the exact MCS-based engine, the comparator
// of Fig. 7(b) — expect 3+ orders of magnitude above BenchmarkMappedQuery.
func BenchmarkExactQuery(b *testing.B) {
	ds := chemBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Queries[i%len(ds.Queries)]
		topk.Exact(ds.DB, q, ds.Metric, ds.MCSOpt)
	}
}

// BenchmarkDSPMIterations measures the full DSPM majorization loop.
func BenchmarkDSPMIterations(b *testing.B) {
	ds := chemBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: benchP(ds)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSPMap measures DSPMap end to end (with cached dissimilarity).
func BenchmarkDSPMap(b *testing.B) {
	ds := chemBench(b)
	dis := func(i, j int) float64 { return ds.Delta[i][j] }
	for i := 0; i < b.N; i++ {
		if _, err := core.DSPMap(ds.Index, dis, core.MapConfig{
			Core: core.Config{P: benchP(ds)}, B: len(ds.DB) / 4, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkString string

// BenchmarkFingerprint measures the benchmark engine's fingerprint
// computation (not part of the paper's figures; calibration only).
func BenchmarkFingerprint(b *testing.B) {
	ds := chemBench(b)
	for i := 0; i < b.N; i++ {
		g := ds.DB[i%len(ds.DB)]
		sinkString = fmt.Sprint(g.M())
	}
}

// ---- Concurrency benches ----

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
				_, err := graphdim.Build(db, graphdim.Options{
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
}

// BenchmarkTopKBatchWorkers measures the online batch path at 1 versus
// NumCPU workers fanning 32 queries over one shared index.
func BenchmarkTopKBatchWorkers(b *testing.B) {
	db := dataset.Synthetic(dataset.SynthConfig{N: 60, AvgEdges: 12, Labels: 8, Seed: 5})
	queries := db[:32]
	for _, workers := range []int{1, runtime.NumCPU()} {
		idx, err := graphdim.Build(db, graphdim.Options{
			Dimensions: 30,
			Tau:        0.1,
			MCSBudget:  2000,
			Workers:    workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := idx.SearchBatch(context.Background(), queries, graphdim.SearchOptions{K: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchEngines measures one query through each Search engine on
// the same index — the latency side of the accuracy/latency dial the v2
// API exposes (mapped ≪ verified ≪ exact).
func BenchmarkSearchEngines(b *testing.B) {
	db := dataset.Synthetic(dataset.SynthConfig{N: 60, AvgEdges: 12, Labels: 8, Seed: 5})
	idx, err := graphdim.Build(db, graphdim.Options{
		Dimensions: 30,
		Tau:        0.1,
		MCSBudget:  2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	q := db[7]
	ctx := context.Background()
	for _, opt := range []graphdim.SearchOptions{
		{K: 10, Engine: graphdim.EngineMapped},
		{K: 10, Engine: graphdim.EngineVerified, VerifyFactor: 3},
		{K: 10, Engine: graphdim.EngineExact},
	} {
		b.Run(opt.Engine.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(ctx, q, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchSparse is one mapped top-10 query against a 3000-graph
// index, for a sparse query whose DimensionBits touch no dimension and
// for a dense database graph. Both run the one flat scan; the sparse
// query's counts tie on ones alone, which is where the heap's threshold
// and the zone map have the least to go on.
func BenchmarkSearchSparse(b *testing.B) {
	db := dataset.Synthetic(dataset.SynthConfig{N: 3000, AvgEdges: 10, Labels: 6, Seed: 11})
	idx, err := graphdim.Build(db, graphdim.Options{
		Dimensions:      48,
		Tau:             0.05,
		MaxPatternEdges: 3,
		MCSBudget:       500,
		Algorithm:       graphdim.DSPMap,
		Seed:            1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The sparse query: a small unseen graph over a disjoint label range,
	// matching none of the index dimensions.
	sparse := graphdim.NewGraph(0)
	sv0 := sparse.AddVertex(40)
	sv1 := sparse.AddVertex(41)
	sv2 := sparse.AddVertex(42)
	sparse.MustAddEdge(sv0, sv1, 7)
	sparse.MustAddEdge(sv1, sv2, 7)
	dense := db[0]
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		q    *graphdim.Graph
	}{
		{"sparse", sparse},
		{"dense", dense},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := idx.Search(ctx, bc.q, graphdim.SearchOptions{K: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheHit measures the generation-keyed query cache: the same
// query against a cached and an uncached collection. The hit path skips
// the VF2 mapping and the scan entirely — expect >= 10x.
func BenchmarkCacheHit(b *testing.B) {
	db := dataset.Synthetic(dataset.SynthConfig{N: 500, AvgEdges: 10, Labels: 6, Seed: 12})
	idx, err := graphdim.Build(db, graphdim.Options{
		Dimensions: 32, Tau: 0.05, MaxPatternEdges: 3, MCSBudget: 500,
		Algorithm: graphdim.DSPMap, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := db[7]
	for _, bc := range []struct {
		name  string
		cache graphdim.CacheOptions
	}{
		{"hit", graphdim.CacheOptions{MaxEntries: 1024}},
		{"uncached", graphdim.CacheOptions{}},
	} {
		store := graphdim.NewStore(graphdim.StoreOptions{})
		coll, err := store.CreateFromIndex("bench-"+bc.name, idx, graphdim.CollectionOptions{
			Shards: 2,
			Cache:  bc.cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			// Warm: the first search populates (or, uncached, just runs).
			if _, err := coll.Search(ctx, q, graphdim.SearchOptions{K: 10}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coll.Search(ctx, q, graphdim.SearchOptions{K: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
		store.Close()
	}
}

// BenchmarkStoreShardedSearch measures one mapped query through the Store
// fan-out at increasing shard counts over the same database — the
// per-query cost of sharding (per-shard VF2 mapping + heap merge) that
// buys parallel Add/persistence/compaction.
func BenchmarkStoreShardedSearch(b *testing.B) {
	db := dataset.Synthetic(dataset.SynthConfig{N: 60, AvgEdges: 12, Labels: 8, Seed: 5})
	idx, err := graphdim.Build(db, graphdim.Options{Dimensions: 30, Tau: 0.1, MCSBudget: 2000})
	if err != nil {
		b.Fatal(err)
	}
	q := db[7]
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		store := graphdim.NewStore(graphdim.StoreOptions{})
		coll, err := store.CreateFromIndex(fmt.Sprintf("s%d", shards), idx, graphdim.CollectionOptions{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coll.Search(ctx, q, graphdim.SearchOptions{K: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
		store.Close()
	}
}

// BenchmarkIngest measures the bulk-ingest write path: one durable-store
// Add per batch means one WAL record and one fsync amortized over the
// whole batch. ns/op is per *graph* (the loop advances by the batch
// size), so batch=1 is the single-add cost the add endpoint pays and
// the batch=256 / batch=1 ratio is the group-commit amortization the
// ingest endpoint buys — the ≥5x acceptance bar of PR 6.
func BenchmarkIngest(b *testing.B) {
	db := dataset.Synthetic(dataset.SynthConfig{N: 60, AvgEdges: 12, Labels: 8, Seed: 5})
	idx, err := graphdim.Build(db, graphdim.Options{Dimensions: 30, Tau: 0.1, MCSBudget: 2000})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			store, err := graphdim.CreateStore(b.TempDir(), graphdim.StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			coll, err := store.CreateFromIndex("bench", idx, graphdim.CollectionOptions{Shards: 4})
			if err != nil {
				b.Fatal(err)
			}
			batch := dataset.Synthetic(dataset.SynthConfig{N: bs, AvgEdges: 12, Labels: 8, Seed: 9})
			b.ResetTimer()
			done := 0
			for ; done < b.N; done += bs {
				if _, err := coll.Add(ctx, batch...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// ns/op is per b.N, which undercounts the final partial batch
			// at small N; ns/graph normalizes by the graphs actually
			// ingested so the batch=256 vs batch=1 ratio (the fsync
			// amortization bulk ingest buys) reads directly off the record
			// at any -benchtime.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done), "ns/graph")
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "graphs/s")
			b.ReportMetric(float64(bs), "graphs/fsync")
		})
	}
}

// BenchmarkSearchAllocs tracks the warm-query allocation profile the
// SoA scan's scratch arenas pin (see TestSearchAllocsBounded for the
// hard ceiling): repeated mapped searches against a 1000-graph index,
// cache off. Watch allocs/op — it must stay a small constant, independent
// of the database size.
func BenchmarkSearchAllocs(b *testing.B) {
	db := dataset.Synthetic(dataset.SynthConfig{N: 1000, AvgEdges: 10, Labels: 6, Seed: 13})
	idx, err := graphdim.Build(db, graphdim.Options{
		Dimensions: 48, Tau: 0.05, MaxPatternEdges: 3, MCSBudget: 500,
		Algorithm: graphdim.DSPMap, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// A single-vertex query: the mapping's size filter rejects every
	// dimension before VF2 allocates matcher state, so allocs/op
	// reflects the scan, not the matcher.
	q := graphdim.NewGraph(1)
	ctx := context.Background()
	b.Run("flat", func(b *testing.B) {
		opt := graphdim.SearchOptions{K: 10}
		if _, err := idx.Search(ctx, q, opt); err != nil { // warm the scratch pool
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := idx.Search(ctx, q, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
