// Command dspm builds a graph-dimension index from a graph database file
// — the paper's offline phase — and persists it as a collection of a
// store directory, the one form gsearch, gq and gserve read.
//
// Usage:
//
//	dspm -in db.graphs -out storedir [-p 200] [-tau 0.05] [-algo dspmap] [-b 50]
//	dspm -gen 200 -out storedir -collection mols -shards 4
//
// The input uses the standard text format ("t #", "v id label",
// "e u v label"). Generate a demo database with -gen N. -out is opened
// or created as a store directory (graphdim.OpenOrCreateStore) and the
// index becomes its collection -collection, split across -shards shards
// with a query-result cache bounded by -cache-entries and -cache-bytes;
// the create checkpoints it. An existing collection of that name is
// refused before the build. -progress reports the build stages (mining,
// MCS matrix, DSPM, vectors), and Ctrl-C cancels a long build promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/graphdim"
	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dspm: ")
	var (
		in       = flag.String("in", "", "input graph database file (text format)")
		out      = flag.String("out", "store", "store directory to create the collection in (opened, or created if it holds no store)")
		collName = flag.String("collection", "default", "name of the collection the index becomes")
		shards   = flag.Int("shards", 1, "shards the collection splits across")
		cacheEnt = flag.Int("cache-entries", 4096, "the collection's query-result cache entries (0 = no cache)")
		cacheB   = flag.Int64("cache-bytes", 64<<20, "the collection's approximate query-result cache size in bytes (0 = entries-only bound)")
		gen      = flag.Int("gen", 0, "instead of -in, generate N chemical-like graphs")
		genSeed  = flag.Int64("seed", 1, "generator / DSPMap seed")
		p        = flag.Int("p", 200, "number of dimensions to select")
		tau      = flag.Float64("tau", 0.05, "minimum support ratio for mining")
		algo     = flag.String("algo", "dspm", "dimension algorithm: dspm or dspmap")
		b        = flag.Int("b", 0, "DSPMap partition size (0 = auto)")
		budget   = flag.Int64("mcs-budget", 20000, "MCS search budget in tree nodes")
		maxEdge  = flag.Int("max-pattern-edges", 6, "cap on mined subgraph size")
		progress = flag.Bool("progress", true, "log build-stage progress")
	)
	flag.Parse()

	var db []*graphdim.Graph
	switch {
	case *gen > 0:
		db = dataset.Chemical(dataset.ChemConfig{N: *gen, Seed: *genSeed})
		log.Printf("generated %d chemical-like graphs", len(db))
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		db, err = graphdim.ReadGraphs(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("read %d graphs from %s", len(db), *in)
	default:
		flag.Usage()
		os.Exit(2)
	}

	opt := graphdim.Options{
		Dimensions:      *p,
		Tau:             *tau,
		MaxPatternEdges: *maxEdge,
		MCSBudget:       *budget,
		PartitionSize:   *b,
		Seed:            *genSeed,
	}
	switch *algo {
	case "dspm":
		opt.Algorithm = graphdim.DSPM
	case "dspmap":
		opt.Algorithm = graphdim.DSPMap
	default:
		log.Fatalf("unknown -algo %q (want dspm or dspmap)", *algo)
	}
	if *progress {
		// Log stage entry and a coarse heartbeat: every 10% for the
		// row/iteration-granular stages, start/end for the others.
		lastPct := make(map[graphdim.BuildStage]int)
		opt.Progress = func(stage graphdim.BuildStage, done, total int) {
			switch {
			case done == 0:
				if total > 0 {
					log.Printf("stage %v: started (%d units)", stage, total)
				} else {
					log.Printf("stage %v: started", stage)
				}
			case done == total:
				log.Printf("stage %v: done (%d/%d)", stage, done, total)
			default:
				if pct := done * 10 / total; pct > lastPct[stage] {
					lastPct[stage] = pct
					log.Printf("stage %v: %d/%d", stage, done, total)
				}
			}
		}
	}

	store, err := graphdim.OpenOrCreateStore(*out, graphdim.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Create refuses a taken name or bad options before the build, and
	// checkpoints the collection once it is built.
	coll, err := store.Create(ctx, *collName, db, graphdim.CollectionOptions{
		Shards: *shards,
		Build:  opt,
		Cache:  graphdim.CacheOptions{MaxEntries: *cacheEnt, MaxBytes: *cacheB},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection %q written to %s: %d graphs, %d dimensions, %d shards\n",
		*collName, *out, coll.Size(), coll.Stats().Dimensions, coll.Shards())
}
