package vecspace

import (
	"math/rand"
	"testing"
)

// BenchmarkKernelBatch isolates the scan kernel from the engines: one
// query's Hamming counts against a packed 4096-vector database, scalar
// one-vector-at-a-time (width=1, the pre-SoA shape) versus the SoA
// tile kernel. The width-16 over width-1 ratio is the raw layout win;
// the engine-level effect shows up in BenchmarkSearchSparse/*/flat.
func BenchmarkKernelBatch(b *testing.B) {
	const n, p = 4096, 128
	rng := rand.New(rand.NewSource(7))
	vecs := randVectors(rng, n, p)
	q := randVectors(rng, 1, p)[0]
	out := make([]int32, n)

	b.Run("width=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for id, v := range vecs {
				out[id] = int32(q.HammingDistance(v))
			}
		}
	})
	blk := Pack(vecs, p)
	b.Run("width=16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blk.HammingInto(q, out)
		}
	})
}
