// Command engines contrasts five top-k similarity engines on the same
// chemical workload: the paper's mapped-space search over DSPM dimensions,
// the filter-and-verify hybrid, the related-work alternatives (graph
// kernels and GED-prototype embedding), and exact MCS search — reproducing
// in one table why the paper's approach wins: near-exact quality at
// vector-scan latency, while kernels/prototypes pay heavy per-query graph
// computations.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/dataset"
	"repro/internal/ged"
	"repro/internal/graph"
	"repro/internal/gspan"
	"repro/internal/kernel"
	"repro/internal/mcs"
	"repro/internal/topk"
	"repro/internal/vecspace"

	"repro/internal/core"
)

const (
	dbSize  = 80
	queries = 8
	k       = 8
)

func main() {
	all := dataset.Chemical(dataset.ChemConfig{N: dbSize + queries, Seed: 21})
	db, qs := all[:dbSize], all[dbSize:]
	metric := mcs.Delta2
	opt := mcs.Options{MaxNodes: 2000}

	// Ground truth.
	exact := make([]topk.Ranking, len(qs))
	exactStart := time.Now()
	for i, q := range qs {
		exact[i] = topk.Exact(db, q, metric, opt)
	}
	exactPerQuery := time.Since(exactStart) / time.Duration(len(qs))

	// DSPM dimensions.
	feats, err := gspan.Mine(db, gspan.Options{MinSupport: 4, MaxEdges: 6})
	if err != nil {
		log.Fatalf("mine: %v", err)
	}
	idx := vecspace.BuildIndex(len(db), feats)
	delta := metric.Matrix(db, opt)
	res, err := core.DSPM(idx, delta, core.Config{P: idx.P / 4, MaxIter: 60})
	if err != nil {
		log.Fatalf("dspm: %v", err)
	}
	sub := idx.Subindex(res.Selected)
	vecs := make([]*vecspace.BitVector, sub.N)
	for i := range vecs {
		vecs[i] = sub.Vector(i)
	}
	dims := make([]*graph.Graph, len(res.Selected))
	for pos, r := range res.Selected {
		dims[pos] = feats[r].Graph
	}
	mapQ := vecspace.NewMapper(dims).Map

	// GED prototypes and kernels.
	pe := ged.SelectPrototypes(db, 16, ged.DefaultCosts(), 1)
	dbEmb := pe.EmbedAll(db)
	spk := kernel.ShortestPath{}

	type engine struct {
		name string
		run  func(qi int) []int
	}
	engines := []engine{
		{"mapped(DSPM)", func(qi int) []int {
			return topk.Mapped(vecs, mapQ(qs[qi])).TopK(k)
		}},
		{"verified(3k)", func(qi int) []int {
			return topk.Verified(db, vecs, qs[qi], mapQ(qs[qi]), k, 3, metric, opt).TopK(k)
		}},
		{"sp-kernel", func(qi int) []int {
			return topk.Similarity(len(db), func(i int) float64 {
				return kernel.Normalized(spk, qs[qi], db[i])
			}).TopK(k)
		}},
		{"ged-proto", func(qi int) []int {
			qe := pe.Embed(qs[qi])
			return topk.Similarity(len(db), func(i int) float64 {
				return -ged.Distance(qe, dbEmb[i])
			}).TopK(k)
		}},
	}

	fmt.Printf("%-14s %10s %12s\n", "engine", "precision", "query time")
	for _, e := range engines {
		start := time.Now()
		prec := 0.0
		for qi := range qs {
			prec += topk.Precision(e.run(qi), exact[qi], k)
		}
		perQuery := time.Since(start) / time.Duration(len(qs))
		fmt.Printf("%-14s %10.3f %12v\n", e.name, prec/float64(len(qs)), perQuery.Round(time.Microsecond))
	}
	fmt.Printf("%-14s %10.3f %12v\n", "exact(MCS)", 1.0, exactPerQuery.Round(time.Microsecond))
}
