// Benchmarks for the v4 segment storage layer (PR 10): cold-open
// latency and resident-heap cost of heap vs mmap serving, and the
// zone-map data-skipping win on selective queries.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/graphdim"
	"repro/internal/dataset"
	"repro/internal/topk"
	"repro/internal/vecspace"
)

var (
	coldOnce sync.Once
	coldDir  string
	coldErr  error
)

// coldStoreDir builds one durable store — 3000 graphs, checkpointed so
// the shard files are v4 segments and the WAL tail is empty — shared by
// every cold-open sub-benchmark.
func coldStoreDir(b *testing.B) string {
	b.Helper()
	coldOnce.Do(func() {
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
			coldErr = err
			return
		}
		dir, err := os.MkdirTemp("", "coldopen-*")
		if err != nil {
			coldErr = err
			return
		}
		s, err := graphdim.CreateStore(dir, graphdim.StoreOptions{})
		if err != nil {
			coldErr = err
			return
		}
		if _, err := s.CreateFromIndex("c", idx, graphdim.CollectionOptions{Shards: 2}); err != nil {
			coldErr = err
			return
		}
		if err := s.Checkpoint(); err != nil {
			coldErr = err
			return
		}
		s.Close()
		coldDir = dir
	})
	if coldErr != nil {
		b.Fatal(coldErr)
	}
	return coldDir
}

// BenchmarkColdOpen measures what the memory mode buys at open: time to
// OpenStore a checkpointed collection plus the steady heap it leaves
// behind (heapMB/op — the rehydration cost mmap avoids; file pages the
// mapping touches live in the page cache, not the Go heap). One search
// per open keeps the comparison honest: the mapped store must be
// serving, not just opened.
func BenchmarkColdOpen(b *testing.B) {
	dir := coldStoreDir(b)
	q := dataset.Synthetic(dataset.SynthConfig{N: 1, AvgEdges: 8, Labels: 6, Seed: 3})[0]
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		mode graphdim.MemoryMode
	}{
		{"heap", graphdim.MemoryHeap},
		{"mmap", graphdim.MemoryMap},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var heapGrowth uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.HeapAlloc
				b.StartTimer()

				s, err := graphdim.OpenStore(dir, graphdim.StoreOptions{Memory: bc.mode})
				if err != nil {
					b.Fatal(err)
				}
				c, _ := s.Collection("c")
				if _, err := c.Search(ctx, q, graphdim.SearchOptions{K: 10}); err != nil {
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
		})
	}
}

// BenchmarkZoneSkip measures zone-map data skipping on the flat scan at
// its design point: clustered data (each zone's vectors draw from one
// narrow dimension band) and a selective query matching one band. With
// zones the scan proves most blocks cannot beat the current top-k floor
// and never touches their tiles; without (WithoutZones) it streams
// everything. Expect >= 2x.
func BenchmarkZoneSkip(b *testing.B) {
	const (
		p     = 256
		zones = 64
		band  = 16
		n     = zones * vecspace.ZoneSpan
	)
	rng := rand.New(rand.NewSource(17))
	vecs := make([]*vecspace.BitVector, n)
	for i := range vecs {
		v := vecspace.NewBitVector(p)
		base := (i / vecspace.ZoneSpan) * band % p
		for j := 0; j < 8; j++ {
			v.Set(base + rng.Intn(band))
		}
		vecs[i] = v
	}
	q := vecspace.NewBitVector(p)
	for j := 0; j < 8; j++ {
		q.Set(rng.Intn(band))
	}
	blk := vecspace.Pack(vecs, p)
	ctx := context.Background()
	s := topk.NewScratch()
	defer s.Release()
	for _, bc := range []struct {
		name string
		blk  *vecspace.Block
	}{
		{"zones", blk},
		{"nozones", blk.WithoutZones()},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := topk.MappedTopKContext(ctx, nil, bc.blk, q, nil, 10, nil, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
