package graphdim_test

import (
	"context"
	"reflect"
	"sync"
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

// TestConcurrentReaders hammers a single Index from many goroutines mixing
// Search and SearchBatch — the contract documented on Index, checked under
// -race in CI. Every goroutine must also observe the same answers a
// sequential caller gets.
func TestConcurrentReaders(t *testing.T) {
	idx, db := buildSmall(t, graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000})

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
					got, err := idx.Search(ctx, db[q], opt)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got.Results, want[q]) {
						t.Errorf("worker %d: Search(db[%d]) diverged under concurrency", w, q)
						return
					}
				} else {
					got, err := idx.SearchBatch(ctx, batch, opt)
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

// TestBuildDeterministicAcrossWorkers asserts the core contract of the
// parallel build: Workers is a performance knob, not a semantics knob.
// Identical inputs must select identical dimensions with identical
// weights at any parallelism.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	for _, algo := range []graphdim.Algorithm{graphdim.DSPM, graphdim.DSPMap} {
		base := graphdim.Options{
			Dimensions: 15,
			Tau:        0.15,
			MCSBudget:  2000,
			Algorithm:  algo,
			Seed:       3,
		}
		seqOpt, parOpt := base, base
		seqOpt.Workers = 1
		parOpt.Workers = 8
		seq, _ := buildSmall(t, seqOpt)
		par, _ := buildSmall(t, parOpt)

		if !reflect.DeepEqual(graphsToStrings(seq.Dimensions()), graphsToStrings(par.Dimensions())) {
			t.Fatalf("algo %v: Workers=1 and Workers=8 selected different dimensions", algo)
		}
		if !reflect.DeepEqual(seq.Weights(), par.Weights()) {
			t.Fatalf("algo %v: Workers=1 and Workers=8 produced different weights", algo)
		}
	}
}

func graphsToStrings(gs []*graphdim.Graph) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.String()
	}
	return out
}

// TestSearchBatchValidation checks mapped batch answers equal
// one-at-a-time answers and that validation rejects bad batches
// atomically.
func TestSearchBatchValidation(t *testing.T) {
	idx, db := buildSmall(t, graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000})
	ctx := context.Background()
	opt := graphdim.SearchOptions{K: 4}

	queries := db[:8]
	batch, err := idx.SearchBatch(ctx, queries, opt)
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

	if _, err := idx.SearchBatch(ctx, queries, graphdim.SearchOptions{K: 0}); err == nil {
		t.Fatal("SearchBatch accepted k=0")
	}
}
