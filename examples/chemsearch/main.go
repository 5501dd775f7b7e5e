// Command chemsearch is a realistic compound-search workflow on the
// graphdim public API: build an index over a chemical database, persist it
// as a collection of a store directory, serve it from there, and compare
// the mapped,
// verified and exact engines on the same queries — the scenario that
// motivates the paper (PubChem-style similarity search without per-query
// MCS computation) plus the accuracy/latency dial the Search API exposes.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/graphdim"
	"repro/internal/dataset"
)

func main() {
	db := dataset.Chemical(dataset.ChemConfig{N: 120, Seed: 7})
	queries := dataset.Chemical(dataset.ChemConfig{N: 5, Seed: 8})
	ctx := context.Background()

	fmt.Printf("building index over %d compounds...\n", len(db))
	start := time.Now()
	idx, err := graphdim.Build(db, graphdim.Options{
		Dimensions: 60,
		Tau:        0.08,
		MCSBudget:  20000,
		Algorithm:  graphdim.DSPMap, // linear-time indexing
		Seed:       1,
	})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Printf("indexed in %v; %d dimensions selected\n", time.Since(start).Round(time.Millisecond), len(idx.Dimensions()))

	// Persist and reopen — a production index is built once, served many
	// times. Creating the collection in a store directory checkpoints it.
	dir := filepath.Join(os.TempDir(), "chemsearch-store")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	store, err := graphdim.CreateStore(dir, graphdim.StoreOptions{})
	if err != nil {
		log.Fatalf("create store: %v", err)
	}
	if _, err := store.CreateFromIndex("compounds", idx, graphdim.CollectionOptions{}); err != nil {
		log.Fatalf("create collection: %v", err)
	}
	store.Close()
	store, err = graphdim.OpenStore(dir, graphdim.StoreOptions{})
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer store.Close()
	coll, _ := store.Collection("compounds")
	fmt.Printf("collection checkpointed to %s and reopened: %d compounds\n", dir, coll.Size())

	// Serve queries; compare the engines against exact MCS ground truth.
	const k = 5
	for qi, q := range queries {
		exact, err := coll.Search(ctx, q, graphdim.SearchOptions{K: k, Engine: graphdim.EngineExact})
		if err != nil {
			log.Fatalf("exact: %v", err)
		}
		inExact := map[int]bool{}
		for _, r := range exact.Results {
			inExact[r.ID] = true
		}

		fmt.Printf("query %d (%d/%d dimensions matched):\n", qi, exact.Matched.Count(), exact.Matched.Len())
		for _, opt := range []graphdim.SearchOptions{
			{K: k},
			{K: k, Engine: graphdim.EngineVerified, VerifyFactor: 3},
		} {
			res, err := coll.Search(ctx, q, opt)
			if err != nil {
				log.Fatalf("%v: %v", opt.Engine, err)
			}
			hits := 0
			for _, r := range res.Results {
				if inExact[r.ID] {
					hits++
				}
			}
			fmt.Printf("  %-8v %-10v %d candidates scored, precision %d/%d (exact took %v)\n",
				res.Engine, res.Elapsed.Round(time.Microsecond), res.Candidates,
				hits, k, exact.Elapsed.Round(time.Millisecond))
		}
	}
}
