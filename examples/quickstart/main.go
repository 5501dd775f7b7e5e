// Command quickstart is the smallest end-to-end use of the graphdim
// public API: generate a toy molecule database, build a graph-dimension
// index with DSPM, serve it as an in-memory collection, answer a top-k
// similarity query in the mapped space, and grow the collection online
// with Add — no re-mining, no re-run of DSPM.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/graphdim"
	"repro/internal/dataset"
)

func main() {
	// A small chemical-compound-like database (deterministic).
	db := dataset.Chemical(dataset.ChemConfig{N: 60, Seed: 42})
	queries := dataset.Chemical(dataset.ChemConfig{N: 3, Seed: 43})
	ctx := context.Background()

	fmt.Printf("database: %d graphs, %d-%d vertices\n", len(db), minN(db), maxN(db))

	// Build the index: mine frequent subgraphs (tau = 10%), select 40
	// dimensions with DSPM, map the database.
	idx, err := graphdim.Build(db, graphdim.Options{
		Dimensions: 40,
		Tau:        0.10,
		MCSBudget:  20000,
	})
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	fmt.Printf("selected %d subgraph dimensions; top dimension:\n%s\n",
		len(idx.Dimensions()), idx.Dimensions()[0])

	// Serve the index as a collection of an in-memory store: every graph
	// keeps its id, and the dimension set is fixed for life.
	store := graphdim.NewStore(graphdim.StoreOptions{})
	defer store.Close()
	coll, err := store.CreateFromIndex("molecules", idx, graphdim.CollectionOptions{})
	if err != nil {
		log.Fatalf("create: %v", err)
	}

	// Query the mapped space.
	for qi, q := range queries {
		res, err := coll.Search(ctx, q, graphdim.SearchOptions{K: 5})
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		fmt.Printf("query %d (%d vertices, %d/%d dims matched): top-5 =",
			qi, q.N(), res.Matched.Count(), res.Matched.Len())
		for _, r := range res.Results {
			fmt.Printf(" g%d(d=%.3f)", r.ID, r.Distance)
		}
		fmt.Println()

		// Cross-check the best hit with the exact MCS dissimilarity.
		best, _ := coll.Graph(res.Results[0].ID)
		fmt.Printf("  exact delta2 to best hit: %.3f\n", graphdim.Delta2.Dissimilarity(q, best))
	}

	// Grow the collection online: the queries become part of the database
	// via a cheap VF2 mapping pass onto the existing dimensions.
	ids, err := coll.Add(ctx, queries...)
	if err != nil {
		log.Fatalf("add: %v", err)
	}
	fmt.Printf("added %d graphs as ids %v; size %d, stale ratio %.3f\n",
		len(ids), ids, coll.Size(), coll.StaleRatios()[0])
	res, err := coll.Search(ctx, queries[0], graphdim.SearchOptions{K: 1})
	if err != nil {
		log.Fatalf("query after add: %v", err)
	}
	fmt.Printf("self query after add: g%d at distance %.3f\n",
		res.Results[0].ID, res.Results[0].Distance)
}

func minN(gs []*graphdim.Graph) int {
	m := gs[0].N()
	for _, g := range gs {
		if g.N() < m {
			m = g.N()
		}
	}
	return m
}

func maxN(gs []*graphdim.Graph) int {
	m := gs[0].N()
	for _, g := range gs {
		if g.N() > m {
			m = g.N()
		}
	}
	return m
}
