package mcs

import (
	"context"
	"sync"

	"repro/internal/graph"
	"repro/internal/pool"
)

// Metric selects one of the paper's two MCS-based dissimilarities.
type Metric int

const (
	// Delta1 is Eq. (1): normalized by the larger graph (Bunke–Shearer).
	Delta1 Metric = iota
	// Delta2 is Eq. (2): normalized by the average graph size; the
	// experiments in the paper use this metric.
	Delta2
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Delta1:
		return "delta1"
	case Delta2:
		return "delta2"
	}
	return "unknown"
}

// FromMCS computes the dissimilarity given |E(mcs)| and the two edge
// counts, without running a search. Both metrics are in [0,1]; two empty
// graphs are defined to have dissimilarity 0.
func (m Metric) FromMCS(mcsEdges, e1, e2 int) float64 {
	switch m {
	case Delta1:
		mx := e1
		if e2 > mx {
			mx = e2
		}
		if mx == 0 {
			return 0
		}
		return 1 - float64(mcsEdges)/float64(mx)
	case Delta2:
		if e1+e2 == 0 {
			return 0
		}
		return 1 - 2*float64(mcsEdges)/float64(e1+e2)
	}
	panic("mcs: unknown metric")
}

// Dissimilarity computes δ(a, b) with an exact MCS search.
func (m Metric) Dissimilarity(a, b *graph.Graph) float64 {
	return m.DissimilarityBudget(a, b, Options{})
}

// DissimilarityBudget computes δ(a, b) with the given search options. With
// a budget the result upper-bounds the true dissimilarity (the matching
// found lower-bounds |E(mcs)|).
func (m Metric) DissimilarityBudget(a, b *graph.Graph, opt Options) float64 {
	return m.FromMCS(edges(a, b, opt), a.M(), b.M())
}

// Matrix computes the full pairwise dissimilarity matrix for a graph
// database, exploiting symmetry (δ is symmetric, Section 2). The diagonal
// is zero. opt bounds each individual MCS search. It is the sequential
// form of MatrixWorkers — O(n²) MCS searches on one goroutine.
func (m Metric) Matrix(db []*graph.Graph, opt Options) [][]float64 {
	return m.MatrixWorkers(db, opt, 1)
}

// MatrixWorkers computes the same matrix with a bounded worker pool:
// rows are distributed across at most workers goroutines (workers <= 0
// means one per CPU). Each (i,j) pair is still computed exactly once and
// each MCS search is independent, so the result is identical to Matrix
// for every worker count.
func (m Metric) MatrixWorkers(db []*graph.Graph, opt Options, workers int) [][]float64 {
	d, _ := m.MatrixContext(context.Background(), db, opt, workers, nil)
	return d
}

// MatrixContext is MatrixWorkers with cancellation and optional progress.
// Workers stop picking up new rows once ctx is done and the partial matrix
// is discarded (nil, ctx.Err()). Each MCS pair also checks ctx, so a
// cancelled call returns after at most one in-flight MCS search per
// worker. progress, when non-nil, is called after each completed row with
// (rowsDone, totalRows); calls are serialized, so the callback needs no
// locking of its own.
func (m Metric) MatrixContext(ctx context.Context, db []*graph.Graph, opt Options, workers int,
	progress func(done, total int)) ([][]float64, error) {
	n := len(db)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	var (
		rowsDone   int
		progressMu sync.Mutex
	)
	// Parallelize over rows; row i owns pairs (i, i+1..n-1). Rows shrink
	// toward the end, but the pool hands out indices dynamically so the
	// imbalance costs at most one row's latency.
	err := pool.ForContext(ctx, pool.DefaultWorkers(workers), n, func(i int) {
		for j := i + 1; j < n; j++ {
			if ctx.Err() != nil {
				return
			}
			d[i][j] = m.DissimilarityBudget(db[i], db[j], opt)
		}
		if progress != nil {
			// Count under the same mutex that serializes the callback so
			// reported counts are monotone.
			progressMu.Lock()
			rowsDone++
			progress(rowsDone, n)
			progressMu.Unlock()
		}
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			d[i][j] = d[j][i]
		}
	}
	return d, nil
}
