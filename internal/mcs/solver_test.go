package mcs

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// chemPairs returns n pairs of 10–20 atom molecules, the size the bench
// workloads and the paper's PubChem extract verify.
func chemPairs(n int) [][2]*graph.Graph {
	db := dataset.Chemical(dataset.ChemConfig{N: 2 * n, Seed: 7})
	pairs := make([][2]*graph.Graph, n)
	for i := range pairs {
		pairs[i] = [2]*graph.Graph{db[2*i], db[2*i+1]}
	}
	return pairs
}

// TestComputeAllocsBounded: the search itself allocates nothing once the
// pooled arena has seen a pair as large — the score path is allocation
// free and Compute pays only for the Mapping it returns.
func TestComputeAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of Puts on purpose")
	}
	pairs := chemPairs(16)
	opt := Options{MaxNodes: 500}
	run := func(f func(a, b *graph.Graph)) float64 {
		each := func() {
			for _, p := range pairs {
				f(p[0], p[1])
				f(p[1], p[0])
			}
		}
		each() // warm-up: grow the arena to the largest pair
		return testing.AllocsPerRun(20, each) / float64(2*len(pairs))
	}
	if got := run(func(a, b *graph.Graph) { Delta2.DissimilarityBudget(a, b, opt) }); got != 0 {
		t.Errorf("DissimilarityBudget: %.2f allocs per call, want 0", got)
	}
	if got := run(func(a, b *graph.Graph) { Compute(a, b, opt) }); got > 2 {
		t.Errorf("Compute: %.2f allocs per call, want <= 2 (the returned Mapping)", got)
	}
}

// BenchmarkCompute measures one budgeted MCS call at the budget the bench
// workloads verify with. ns/node is the figure with a hardware ceiling:
// a tree node is a bound check over about a dozen types, a candidate
// scan of <= 20 vertices and a short sort. reference is the solver this
// package shipped before the arena one, walking the same trees.
func BenchmarkCompute(b *testing.B) {
	pairs := chemPairs(64)
	opt := Options{MaxNodes: 500}
	nodes := make([]int64, len(pairs))
	for i, p := range pairs {
		nodes[i] = Compute(p[0], p[1], opt).Nodes
	}
	for _, bc := range []struct {
		name string
		call func(x, y *graph.Graph)
	}{
		{"score", func(x, y *graph.Graph) { Delta2.DissimilarityBudget(x, y, opt) }},
		{"compute", func(x, y *graph.Graph) { Compute(x, y, opt) }},
		{"reference", func(x, y *graph.Graph) { refCompute(x, y, opt) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var visited int64
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				bc.call(p[0], p[1])
				visited += nodes[i%len(pairs)]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/node")
		})
	}
}

// TestPooledSolversUnderConcurrency: Compute draws its solver from a pool
// shared by the shard fan-out's goroutines and MatrixContext's workers.
// Several goroutines walking pairs of different sizes at once must each
// get the sequential answer; run under -race (make race) this is what
// gates the pool.
func TestPooledSolversUnderConcurrency(t *testing.T) {
	pairs := chemPairs(24)
	opt := Options{MaxNodes: 300}
	want := make([]Result, len(pairs))
	for i, p := range pairs {
		want[i] = Compute(p[0], p[1], opt)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := range pairs {
				i := (n*7 + w*5) % len(pairs) // a different order per goroutine
				p := pairs[i]
				if got := Compute(p[0], p[1], opt); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, pair %d: got %+v, want %+v", w, i, got, want[i])
				}
				if got, want := Delta2.DissimilarityBudget(p[0], p[1], opt), Delta2.FromMCS(want[i].Edges, p[0].M(), p[1].M()); got != want {
					t.Errorf("goroutine %d, pair %d: dissimilarity %v, want %v", w, i, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
}
