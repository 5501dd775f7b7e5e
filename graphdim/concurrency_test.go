package graphdim_test

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/graphdim"
	"repro/internal/dataset"
)

func buildSmall(t *testing.T, opt graphdim.Options) (*graphdim.Index, []*graphdim.Graph) {
	t.Helper()
	db := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 8, MaxVertices: 12, Seed: 11})
	idx, err := graphdim.Build(db, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx, db
}

// batchCollection serves idx as a two-shard collection of an in-memory
// store — the one batch search path, Collection.SearchBatch.
func batchCollection(t *testing.T, idx *graphdim.Index) *graphdim.Collection {
	t.Helper()
	store := graphdim.NewStore(graphdim.StoreOptions{})
	t.Cleanup(store.Close)
	c, err := store.CreateFromIndex("batch", idx, graphdim.CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConcurrentReaders hammers a single collection from many goroutines
// mixing Search and SearchBatch — the readers-need-no-locking contract,
// checked under -race in CI. Every goroutine must also observe the same
// answers a sequential caller of the unsharded Index gets.
func TestConcurrentReaders(t *testing.T) {
	idx, db := buildSmall(t, graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000})
	c := batchCollection(t, idx)

	ctx := context.Background()
	opt := graphdim.SearchOptions{K: 3}
	want := make([][]graphdim.Result, 5)
	for i := range want {
		r, err := idx.Search(ctx, db[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Results
	}
	batch := db[:5]

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				if w%2 == 0 {
					q := (w + rep) % 5
					got, err := c.Search(ctx, db[q], opt)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got.Results, want[q]) {
						t.Errorf("worker %d: Search(db[%d]) diverged under concurrency", w, q)
						return
					}
				} else {
					got, err := c.SearchBatch(ctx, batch, opt)
					if err != nil {
						errs <- err
						return
					}
					for q := range got {
						if !reflect.DeepEqual(got[q].Results, want[q]) {
							t.Errorf("worker %d: SearchBatch query %d diverged under concurrency", w, q)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSearchBatchValidation checks mapped batch answers equal
// one-at-a-time answers of the unsharded Index and that validation
// rejects bad batches atomically, before any query runs.
func TestSearchBatchValidation(t *testing.T) {
	idx, db := buildSmall(t, graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000})
	c := batchCollection(t, idx)
	ctx := context.Background()
	opt := graphdim.SearchOptions{K: 4}

	queries := db[:8]
	batch, err := c.SearchBatch(ctx, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("got %d result lists for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		single, err := idx.Search(ctx, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Results, single.Results) {
			t.Fatalf("query %d: batch and single answers differ", i)
		}
	}

	if _, err := c.SearchBatch(ctx, queries, graphdim.SearchOptions{K: 0}); err == nil {
		t.Fatal("SearchBatch accepted k=0")
	}
	// A nil query fails the batch before the valid query ahead of it
	// runs: its predicate is never asked.
	var asked atomic.Int64
	count := func(int, *graphdim.Graph) bool { asked.Add(1); return true }
	withNil := []*graphdim.Graph{queries[0], nil}
	if _, err := c.SearchBatch(ctx, withNil, graphdim.SearchOptions{K: 4, Predicate: count}); err == nil {
		t.Fatal("SearchBatch accepted a nil query")
	}
	if n := asked.Load(); n != 0 {
		t.Fatalf("a batch with a nil query ran a query first (%d predicate calls)", n)
	}
}
