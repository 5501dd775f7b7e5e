package posting

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vecspace"
)

// benchIndex builds a 50k-id index at molecule-like density (each
// vector containing ~5% of 200 dimensions).
func benchIndex(b *testing.B) (*Index, []*vecspace.BitVector) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	vecs := randomVectors(rng, 50_000, 200, 0.05)
	return FromVectors(vecs, 200), vecs
}

// BenchmarkPostingBuild measures the bulk transpose.
func BenchmarkPostingBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	vecs := randomVectors(rng, 50_000, 200, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromVectors(vecs, 200)
	}
}

// BenchmarkPostingAppend measures incremental maintenance: one 64-graph
// batch appended to a 50k-id index.
func BenchmarkPostingAppend(b *testing.B) {
	ix, _ := benchIndex(b)
	rng := rand.New(rand.NewSource(7))
	batch := randomVectors(rng, 64, 200, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Append to the same base every iteration: each run measures one
		// batch landing on a 50k-id chain head.
		_ = ix.Append(batch)
	}
}

// BenchmarkPostingUnion measures the k-way merge at increasing fan-in.
func BenchmarkPostingUnion(b *testing.B) {
	ix, _ := benchIndex(b)
	for _, dims := range []int{2, 8, 32} {
		lists := make([][]int32, dims)
		for i := range lists {
			lists[i] = ix.List(i * 3)
		}
		b.Run(fmt.Sprintf("dims=%d", dims), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Union(lists...)
			}
		})
	}
}

// BenchmarkPostingPlan measures plan construction (cost model + union)
// for a query matching 3 of 200 dimensions.
func BenchmarkPostingPlan(b *testing.B) {
	ix, _ := benchIndex(b)
	q := vecspace.NewBitVector(200)
	q.Set(5)
	q.Set(50)
	q.Set(150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix.Plan(q, 10) == nil {
			b.Fatal("no plan")
		}
	}
}
