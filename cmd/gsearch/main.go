// Command gsearch answers top-k graph similarity queries against a
// collection of a store directory — written by dspm -out, or the -data
// directory of a gserve.
//
// Usage:
//
//	gsearch -store storedir -queries q.graphs [-k 10] [-engine verified] [-factor 3]
//	gsearch -store storedir -collection mols -queries q.graphs
//
// The engine flag picks the query engine: mapped (the paper's vector-space
// scan, the default), verified (retrieve factor·k candidates, re-rank by
// exact MCS), or exact (full MCS search; orders of magnitude slower, for
// ground-truth comparison). Queries fan out across the collection's
// shards; results are identical to an unsharded index. gsearch opens the
// directory as its one owner: a stopped store, cleanly shut down or
// killed, answers with every acknowledged write (the log tail is
// replayed), while the directory of a running gserve is refused as in
// use by another process — query a live store through its server.
// Ctrl-C cancels an in-flight query promptly.
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
		storeDir = flag.String("store", "store", "store directory (dspm -out, or a stopped gserve's -data directory)")
		collName = flag.String("collection", "default", "collection to query inside -store")
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

	// The open takes the directory's lock and replays its log tail, so
	// the answer covers every acknowledged write; it fails naming the
	// lock while another process (a live gserve) owns the directory.
	store, err := graphdim.OpenStore(*storeDir, graphdim.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	coll, ok := store.Collection(*collName)
	if !ok {
		log.Fatalf("store %s has no collection %q (have %v)", *storeDir, *collName, store.Collections())
	}
	log.Printf("opened %s/%s: %d graphs in %d shards", *storeDir, *collName, coll.Size(), coll.Shards())

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

	opt := graphdim.SearchOptions{K: *k, Engine: eng, VerifyFactor: *factor, MaxCandidates: *maxcand}
	for qi, q := range qs {
		res, err := coll.Search(ctx, q, opt)
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
