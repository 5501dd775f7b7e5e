// Command dspm builds a graph-dimension index from a graph database file
// and writes it to disk for use by gsearch and gserve.
//
// Usage:
//
//	dspm -in db.graphs -out index.gdx [-p 200] [-tau 0.05] [-algo dspmap] [-b 50]
//
// The input uses the standard text format ("t #", "v id label",
// "e u v label"). Generate a demo database with -gen N. The index is
// written as one v4 segment file; -progress reports the build
// stages (mining, MCS matrix, DSPM, vectors), and Ctrl-C cancels a long
// build promptly.
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
		out      = flag.String("out", "index.gdx", "output index file")
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	idx, err := graphdim.BuildContext(ctx, db, opt)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("selected %d dimensions", len(idx.Dimensions()))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	n, err := idx.WriteTo(f)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index written to %s (%d bytes)\n", *out, n)
}
