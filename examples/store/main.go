// Command store demonstrates the graphdim.Store management layer: a named
// collection sharded across parallel indexes, fan-out search with a
// global top-k merge, online growth and removal, a Compact that reclaims
// the removed slots without moving a ranking, and persistence: the store
// lives in a data directory, a Checkpoint writes it there, and OpenStore
// serves it again — the serving-system shape cmd/gserve exposes over
// HTTP.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/graphdim"
	"repro/internal/dataset"
)

func main() {
	ctx := context.Background()
	db := dataset.Chemical(dataset.ChemConfig{N: 60, Seed: 42})
	queries := dataset.Chemical(dataset.ChemConfig{N: 2, Seed: 43})

	// A durable store: every collection is checkpointed into dir when it
	// is created, and every later write is logged there first.
	dir := filepath.Join(os.TempDir(), "graphdim-store-example")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	store, err := graphdim.CreateStore(dir, graphdim.StoreOptions{})
	if err != nil {
		log.Fatalf("create store: %v", err)
	}

	// One build over the full database, split across 4 shards: every
	// shard holds the same dimension set for the life of the collection,
	// so the sharded search is exactly equivalent to an unsharded index.
	coll, err := store.Create(ctx, "molecules", db, graphdim.CollectionOptions{
		Shards: 4,
		Build:  graphdim.Options{Dimensions: 40, Tau: 0.10, MCSBudget: 20000},
	})
	if err != nil {
		log.Fatalf("create: %v", err)
	}
	fmt.Printf("collection %q: %d graphs in %d shards\n", coll.Name(), coll.Size(), coll.Shards())

	// Fan-out search.
	top5 := graphdim.SearchOptions{K: 5}
	for qi, q := range queries {
		res, err := coll.Search(ctx, q, top5)
		if err != nil {
			log.Fatalf("search: %v", err)
		}
		fmt.Printf("query %d: top-%d =", qi, len(res.Results))
		for _, r := range res.Results {
			fmt.Printf(" g%d(d=%.3f)", r.ID, r.Distance)
		}
		fmt.Println()
	}

	// Grow the collection: new graphs hash onto their shards and are
	// mapped in parallel, no re-mining. The stale ratio is the operator's
	// signal that it is time to Create a fresh collection — nothing
	// re-selects dimensions on its own.
	extra := dataset.Chemical(dataset.ChemConfig{N: 40, Seed: 77})
	ids, err := coll.Add(ctx, extra...)
	if err != nil {
		log.Fatalf("add: %v", err)
	}
	fmt.Printf("added ids %d..%d; stale ratios now %.2f\n", ids[0], ids[len(ids)-1], coll.StaleRatios())

	// Remove tombstones; Compact reclaims the tombstoned slots — same
	// dimensions, same vectors, so the ranking cannot move — while
	// searches keep serving.
	if err := coll.Remove(ids[:10]...); err != nil {
		log.Fatalf("remove: %v", err)
	}
	before, err := coll.Search(ctx, queries[0], top5)
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	n, err := coll.Compact(ctx)
	if err != nil {
		log.Fatalf("compact: %v", err)
	}
	after, err := coll.Search(ctx, queries[0], top5)
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	_, resolvable := coll.Graph(ids[0])
	fmt.Printf("removed 10, compacted %d shards; g%d still resolves: %v; top-1 g%d -> g%d\n",
		n, ids[0], resolvable, before.Results[0].ID, after.Results[0].ID)

	// Checkpoint (the reopen then replays no log), release the directory
	// and serve it again.
	if err := store.Checkpoint(); err != nil {
		log.Fatalf("checkpoint: %v", err)
	}
	store.Close()
	loaded, err := graphdim.OpenStore(dir, graphdim.StoreOptions{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer loaded.Close()
	lcoll, _ := loaded.Collection("molecules")
	res, err := lcoll.Search(ctx, extra[10], graphdim.SearchOptions{K: 1})
	if err != nil {
		log.Fatalf("search after reload: %v", err)
	}
	fmt.Printf("reloaded from %s: self query hits g%d at distance %.3f\n",
		filepath.Base(dir), res.Results[0].ID, res.Results[0].Distance)
}
