// Command gq runs a composable query pipeline — the same JSON documents
// POST /v1/collections/{name}/query accepts — against a collection of a
// store directory (dspm -out, or a gserve -data directory), offline,
// without a server.
//
// Usage:
//
//	gq -pipeline p.json -store storedir
//	gq -pipeline - -store storedir -collection default < p.json
//
// A pipeline is {"stages":[...]} with filter, search, topk, limit,
// count and group_by stages (see internal/pipeline); a search stage
// carries its query graph inline as {"labels":[...],"edges":[[u,v,l],
// ...]}. The result is printed as JSON on stdout: rows, count or
// groups, plus execution stats (pushdown split, per-stage timings).
// The pipeline fans out across the collection's shards and per-shard
// partial aggregates merge to the unsharded answer. gq opens the
// directory as its one owner: a stopped store, cleanly shut down or
// killed, answers with every acknowledged write (the log tail is
// replayed), while the directory of a running gserve is refused as in
// use by another process — query a live store through its server's
// /query route, which takes the same documents. Ctrl-C cancels an
// in-flight pipeline promptly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/graphdim"
	"repro/internal/pipeline"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gq: ")
	var (
		pipePath = flag.String("pipeline", "", `pipeline JSON file ("-" = stdin)`)
		storeDir = flag.String("store", "store", "store directory (dspm -out, or a stopped gserve's -data directory)")
		collName = flag.String("collection", "default", "collection to query inside -store")
	)
	flag.Parse()
	if *pipePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	var body []byte
	var err error
	if *pipePath == "-" {
		body, err = io.ReadAll(os.Stdin)
	} else {
		body, err = os.ReadFile(*pipePath)
	}
	if err != nil {
		log.Fatal(err)
	}
	p, err := pipeline.Parse(body)
	if err != nil {
		log.Fatal(err)
	}

	// gq owns the directory while it runs (see gsearch).
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := coll.Query(ctx, p)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatal(err)
	}
}
