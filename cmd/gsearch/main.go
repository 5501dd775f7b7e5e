// Command gsearch answers top-k graph similarity queries against an index
// built by the dspm command, or against a collection of a store directory
// saved by the graphdim.Store API.
//
// Usage:
//
//	gsearch -index index.gdx -queries q.graphs [-k 10] [-engine verified] [-factor 3]
//	gsearch -index index.gdx -queries q.graphs -shards 4
//	gsearch -store storedir -collection default -queries q.graphs
//
// The engine flag picks the query engine: mapped (the paper's vector-space
// scan, the default), verified (retrieve factor·k candidates, re-rank by
// exact MCS), or exact (full MCS search; orders of magnitude slower, for
// ground-truth comparison). With -shards > 1 the flat index is split into
// a sharded in-memory collection and queries fan out across the shards —
// results are identical to the unsharded index, making the flag a handy
// equivalence check for the Store path. Ctrl-C cancels an in-flight query
// promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/graphdim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gsearch: ")
	var (
		index    = flag.String("index", "index.gdx", "index file built by dspm (a v4 segment)")
		storeDir = flag.String("store", "", "store directory saved by graphdim.Store (overrides -index)")
		collName = flag.String("collection", "default", "collection to query inside -store")
		shards   = flag.Int("shards", 1, "with -index: split the index into this many shards and fan queries out")
		queries  = flag.String("queries", "", "query graphs file (text format)")
		k        = flag.Int("k", 10, "number of results per query")
		engine   = flag.String("engine", "mapped", "query engine: mapped, verified or exact")
		factor   = flag.Int("factor", 0, "verified engine: candidates = factor*k (0 = default 3)")
		maxcand  = flag.Int("maxcand", 0, "verified engine: hard cap on verified candidates (0 = uncapped)")
	)
	flag.Parse()
	if *queries == "" {
		flag.Usage()
		os.Exit(2)
	}
	eng, err := graphdim.ParseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}

	// search abstracts over the three backends: a flat index, a sharded
	// in-memory collection wrapped around it, or a persisted store.
	var search func(ctx context.Context, q *graphdim.Graph, opt graphdim.SearchOptions) (*graphdim.SearchResult, error)
	switch {
	case *storeDir != "":
		// A query CLI must never become a second owner of the store's
		// write-ahead log — the directory may belong to a live gserve.
		// Disabled opens read the snapshot without touching the log, and
		// refuse (with an explanation) if un-replayed records exist; let
		// the serving process recover those. Racing a live checkpoint can
		// fail transiently (superseded shard files swept mid-open) —
		// loud, clean, and fixed by retrying.
		store, err := graphdim.OpenStore(*storeDir, graphdim.StoreOptions{WAL: graphdim.WALOptions{Disabled: true}})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		coll, ok := store.Collection(*collName)
		if !ok {
			log.Fatalf("store %s has no collection %q (have %v)", *storeDir, *collName, store.Collections())
		}
		log.Printf("opened %s/%s: %d graphs in %d shards", *storeDir, *collName, coll.Size(), coll.Shards())
		search = coll.Search
	default:
		f, err := os.Open(*index)
		if err != nil {
			log.Fatal(err)
		}
		idx, err := graphdim.ReadIndex(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if *shards > 1 {
			store := graphdim.NewStore(graphdim.StoreOptions{})
			defer store.Close()
			coll, err := store.CreateFromIndex(*collName, idx, graphdim.CollectionOptions{Shards: *shards})
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("split %s into %d shards", *index, coll.Shards())
			search = coll.Search
		} else {
			search = idx.Search
		}
	}

	qf, err := os.Open(*queries)
	if err != nil {
		log.Fatal(err)
	}
	qs, err := graphdim.ReadGraphs(qf)
	qf.Close()
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The CLI specifies every knob explicitly (flags have defaults), so a
	// store collection's default overlay must not reinterpret the zero
	// values — -engine mapped means mapped.
	opt := graphdim.SearchOptions{K: *k, Engine: eng, VerifyFactor: *factor, MaxCandidates: *maxcand, NoDefaults: true}
	for qi, q := range qs {
		res, err := search(ctx, q, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %d (%d vertices, %d edges): %d/%d dimensions matched, %s engine scored %d candidates in %v:\n",
			qi, q.N(), q.M(), res.Matched.Count(), res.Matched.Len(),
			res.Engine, res.Candidates, res.Elapsed.Round(time.Microsecond))
		for rank, r := range res.Results {
			fmt.Printf("  %2d. graph %-6d distance %.4f\n", rank+1, r.ID, r.Distance)
		}
	}
}
