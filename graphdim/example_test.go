package graphdim_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"repro/graphdim"
	"repro/internal/dataset"
)

// Example demonstrates the core workflow: build an index over a graph
// database and answer a top-k similarity query in the mapped space.
func Example() {
	db := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 8, MaxVertices: 12, Seed: 4})
	idx, err := graphdim.Build(db, graphdim.Options{
		Dimensions: 15,
		Tau:        0.15,
		MCSBudget:  2000,
	})
	if err != nil {
		panic(err)
	}
	// Query with a database graph: it is its own nearest neighbour.
	res, err := idx.Search(context.Background(), db[5], graphdim.SearchOptions{K: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Results[0].Distance == 0)
	// Output: true
}

// ExampleIndex_Search shows the per-query dials: the verified engine
// re-ranks mapped-space candidates by exact MCS dissimilarity, and a
// predicate restricts the search to a subset of the database.
func ExampleIndex_Search() {
	db := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 8, MaxVertices: 12, Seed: 4})
	idx, err := graphdim.Build(db, graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000})
	if err != nil {
		panic(err)
	}
	res, err := idx.Search(context.Background(), db[5], graphdim.SearchOptions{
		K:            3,
		Engine:       graphdim.EngineVerified,
		VerifyFactor: 4, // verify the best 4·3 mapped-space candidates
		Predicate: func(id int, g *graphdim.Graph) bool {
			return id != 5 // everything but the query itself
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Engine)
	fmt.Println(len(res.Results) == 3)
	for _, r := range res.Results {
		if r.ID == 5 {
			fmt.Println("predicate violated")
		}
	}
	// Output:
	// verified
	// true
}

// ExampleIndex_Add grows a built index online: new graphs are mapped onto
// the fixed dimension set with a cheap VF2 pass — no re-mining, no DSPM
// re-run — and become searchable immediately.
func ExampleIndex_Add() {
	all := dataset.Chemical(dataset.ChemConfig{N: 32, MinVertices: 8, MaxVertices: 12, Seed: 4})
	db, extra := all[:30], all[30:]
	idx, err := graphdim.Build(db, graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000})
	if err != nil {
		panic(err)
	}
	ids, err := idx.Add(extra...)
	if err != nil {
		panic(err)
	}
	fmt.Println(ids)
	fmt.Println(idx.Size())
	fmt.Printf("%.3f\n", idx.StaleRatio())
	// Output:
	// [30 31]
	// 32
	// 0.062
}

// ExampleIndex_SearchBatch answers a batch of queries in one call,
// fanning them across the index's worker pool. Batch answers are
// identical to one-at-a-time Search answers at any Options.Workers
// setting.
func ExampleIndex_SearchBatch() {
	db := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 8, MaxVertices: 12, Seed: 4})
	idx, err := graphdim.Build(db, graphdim.Options{
		Dimensions: 15,
		Tau:        0.15,
		MCSBudget:  2000,
		Workers:    4, // offline build and batch-query fan-out bound
	})
	if err != nil {
		panic(err)
	}
	batch, err := idx.SearchBatch(context.Background(), db[:3], graphdim.SearchOptions{K: 2})
	if err != nil {
		panic(err)
	}
	for i, res := range batch {
		// Each query is a database graph, so its nearest neighbour is
		// itself at distance 0.
		fmt.Println(i, res.Results[0].ID == i, res.Results[0].Distance)
	}
	// Output:
	// 0 true 0
	// 1 true 0
	// 2 true 0
}

// ExampleIndex_WriteTo persists a built index and reloads it with
// ReadIndex — the offline/online split: build once with dspm, serve
// queries from the saved file with gserve without re-mining or
// re-running DSPM.
func ExampleIndex_WriteTo() {
	db := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 8, MaxVertices: 12, Seed: 4})
	idx, err := graphdim.Build(db, graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000})
	if err != nil {
		panic(err)
	}

	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		panic(err)
	}
	loaded, err := graphdim.ReadIndex(&buf)
	if err != nil {
		panic(err)
	}

	fmt.Println(loaded.Size() == idx.Size())
	fmt.Println(len(loaded.Dimensions()) == len(idx.Dimensions()))
	ctx := context.Background()
	a, _ := idx.Search(ctx, db[7], graphdim.SearchOptions{K: 3})
	b, _ := loaded.Search(ctx, db[7], graphdim.SearchOptions{K: 3})
	fmt.Println(reflect.DeepEqual(a.Results, b.Results))
	// Output:
	// true
	// true
	// true
}

// ExampleStore shows the management layer: a collection sharded across
// parallel indexes answers exactly like an unsharded index, grows and
// shrinks online, and reclaims removed slots in place without moving a
// ranking.
func ExampleStore() {
	db := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 8, MaxVertices: 12, Seed: 4})
	ctx := context.Background()

	store := graphdim.NewStore(graphdim.StoreOptions{})
	defer store.Close()
	coll, err := store.Create(ctx, "molecules", db, graphdim.CollectionOptions{
		Shards:   3,
		Build:    graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000},
		Defaults: graphdim.SearchOptions{K: 5},
	})
	if err != nil {
		panic(err)
	}

	// The fan-out search merges per-shard top-k lists into the exact
	// unsharded ranking; K comes from the collection defaults.
	flat, err := graphdim.Build(db, graphdim.Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000})
	if err != nil {
		panic(err)
	}
	want, _ := flat.Search(ctx, db[5], graphdim.SearchOptions{K: 5})
	got, err := coll.Search(ctx, db[5], graphdim.SearchOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("sharded == unsharded:", reflect.DeepEqual(got.Results, want.Results))

	// Grow the collection, remove a few graphs, then reclaim their slots
	// while readers keep serving: same dimensions, same vectors, so the
	// ranking cannot move.
	ids, err := coll.Add(ctx, dataset.Chemical(dataset.ChemConfig{N: 20, MinVertices: 8, MaxVertices: 12, Seed: 9})...)
	if err != nil {
		panic(err)
	}
	if err := coll.Remove(ids[:6]...); err != nil {
		panic(err)
	}
	before, _ := coll.Search(ctx, db[5], graphdim.SearchOptions{})
	compacted, err := coll.Compact(ctx)
	if err != nil {
		panic(err)
	}
	after, _ := coll.Search(ctx, db[5], graphdim.SearchOptions{})
	fmt.Println("graphs:", coll.Size(), "shards compacted:", compacted)
	fmt.Println("ranking unchanged:", reflect.DeepEqual(after.Results, before.Results))
	// Output:
	// sharded == unsharded: true
	// graphs: 44 shards compacted: 3
	// ranking unchanged: true
}
