package graphdim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecspace"
)

var (
	addBaseOnce  sync.Once
	addBaseIndex *Index
	addBaseErr   error
)

// addBase returns an index of n graphs over the dimension set of one small
// built index: its 60 graphs and their vectors repeated, so a large base
// costs a pack, not n mappings, and an Add into it maps what any Add maps.
func addBase(tb testing.TB, n int) *Index {
	tb.Helper()
	addBaseOnce.Do(func() {
		db := dataset.Synthetic(dataset.SynthConfig{N: 60, AvgEdges: 12, Labels: 8, Seed: 5})
		addBaseIndex, addBaseErr = Build(db, Options{Dimensions: 30, Tau: 0.1, MCSBudget: 2000})
	})
	if addBaseErr != nil {
		tb.Fatal(addBaseErr)
	}
	small := addBaseIndex.snap.Load()
	db := make([]*Graph, n)
	vecs := make([]*vecspace.BitVector, n)
	for i := range db {
		db[i], vecs[i] = small.db[i%len(small.db)], small.block.Vector(i%len(small.db))
	}
	return addBaseIndex.fork(newSnapshot(db, vecs, small.block.P()))
}

// addBatch is the 8-graph batch every Add measurement adds.
func addBatch() []*Graph {
	return dataset.Synthetic(dataset.SynthConfig{N: 8, AvgEdges: 12, Labels: 8, Seed: 9})
}

// TestAddCostIndependentOfSize pins the O(batch) publish: the bytes one
// volatile 8-graph Add allocates on a 2-shard collection may grow with
// the stored graphs by no more than 4 B per graph between a base of 2,000
// and one of 40,000. What is left is Block.Append copying its tile-header
// slice (24 B per 16 graphs); copying db, dead and globals on every
// publish costs about 19 B per graph and fails the test. The Remove leg
// holds a single-id Remove to 0.125 B per stored graph: it copies one
// shard's tombstone bitset, 1/16 B per graph of the collection, where a
// []bool tombstone column costs 0.5 B and fails.
func TestAddCostIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	batch := addBatch()
	ctx := context.Background()
	// perOp is the bytes one call of op allocates on a collection over a
	// base of n graphs; op(c, i) makes the i-th call.
	perOp := func(n int, op func(c *Collection, i int) error) float64 {
		c, err := newTestStore(t).CreateFromIndex("c", addBase(t, n), CollectionOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		call := func(i int) {
			if err := op(c, i); err != nil {
				t.Fatal(err)
			}
		}
		// Warm up: the first Add after the open grows every clipped column once.
		for i := range 10 {
			call(i)
		}
		const ops = 200
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range ops {
			call(10 + i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / ops
	}
	const small, large = 2000, 40000
	for _, leg := range []struct {
		name    string
		op      func(c *Collection, i int) error
		ceiling float64
		cause   string
	}{
		{"8-graph Add", func(c *Collection, _ int) error { _, err := c.Add(ctx, batch...); return err }, 4,
			"the publish copies a column"},
		{"single-id Remove", func(c *Collection, i int) error { return c.Remove(i) }, 0.125,
			"the tombstone set costs more than a bit per graph"},
	} {
		a, b := perOp(small, leg.op), perOp(large, leg.op)
		perGraph := (b - a) / (large - small)
		t.Logf("bytes per %s: %.0f at %d graphs, %.0f at %d: %.3f B per stored graph", leg.name, a, small, b, large, perGraph)
		if perGraph > leg.ceiling {
			t.Fatalf("a %s allocates %.3f B more per stored graph (%.0f B at %d graphs, %.0f B at %d), ceiling %g: %s",
				leg.name, perGraph, a, small, b, large, leg.ceiling, leg.cause)
		}
	}
}

// BenchmarkStoreAdd measures one 8-graph Collection.Add on 2 shards over a
// base of 2,000 and of 40,000 graphs, with the write-ahead log off (a
// NewStore) and on (a durable store: each batch is framed, written and
// fsynced before it publishes, its mapping running meanwhile). An O(batch)
// publish shows the same B/op at both sizes, up to Block.Append's
// tile-header copy; a publish that copies columns shows the base size.
// wal=on minus wal=off is what durability adds.
func BenchmarkStoreAdd(b *testing.B) {
	batch := addBatch()
	ctx := context.Background()
	for _, n := range []int{2000, 40000} {
		base := addBase(b, n)
		for _, wal := range []string{"off", "on"} {
			b.Run(fmt.Sprintf("n=%d/wal=%s", n, wal), func(b *testing.B) {
				var store *Store
				if wal == "on" {
					var err error
					if store, err = CreateStore(b.TempDir(), StoreOptions{}); err != nil {
						b.Fatal(err)
					}
				} else {
					store = NewStore(StoreOptions{})
				}
				defer store.Close()
				c, err := store.CreateFromIndex("bench", base, CollectionOptions{Shards: 2})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Add(ctx, batch...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIngest measures the bulk-ingest write path: one durable-store
// Add per batch means one WAL record and one fsync amortized over the
// whole batch. ns/op is per *graph* (the loop advances by the batch
// size), so batch=1 is the single-add cost the add endpoint pays and
// the batch=256 / batch=1 ratio is the fsync amortization the ingest
// endpoint buys by putting a batch of graphs in one record.
func BenchmarkIngest(b *testing.B) {
	idx := addBase(b, 60) // the 60 built graphs, as built
	ctx := context.Background()
	for _, bs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			store, err := CreateStore(b.TempDir(), StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			coll, err := store.CreateFromIndex("bench", idx, CollectionOptions{Shards: 4})
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
