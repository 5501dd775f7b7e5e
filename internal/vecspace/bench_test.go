package vecspace

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/gspan"
	"repro/internal/subiso"
)

// chemMapper builds a mapper shaped like the one bench/ measures: 64
// mined subgraphs of a 200-molecule sample (τ = 0.05, ≤ 6 edges, 64
// scaffolds) and dense 10–20-vertex molecules from the same families to
// map. The dimensions are the first 64 mined rather than DSPMap's pick —
// the VF2 work per map is of the same kind and size.
func chemMapper(tb testing.TB) (*Mapper, []*graph.Graph) {
	tb.Helper()
	all := dataset.Chemical(dataset.ChemConfig{N: 264, Seed: 7, Scaffolds: 64})
	sample, queries := all[:200], all[200:]
	feats, err := gspan.Mine(sample, gspan.Options{
		MinSupport:  gspan.MinSupportRatio(0.05, len(sample)),
		MaxEdges:    6,
		MaxFeatures: 64,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fs := make([]*graph.Graph, len(feats))
	for i, f := range feats {
		fs[i] = f.Graph
	}
	return NewMapper(fs), queries
}

// BenchmarkMapperMap is the per-query (and per-added-graph) cost of
// entering the vector space over the first 64 mined features of
// chemMapper (not DSPMap's pick). map is Mapper.Map: one label-count pass,
// then VF2 only for the dimensions the counts cannot rule out. reference
// is the loop Map replaced — a compiled VF2 test for every feature over
// one scratch — so the map/reference ratio is the precheck's win in one
// run. Run with -benchmem: Map's allocs/op is pinned by
// TestMapAllocsBounded.
func BenchmarkMapperMap(b *testing.B) {
	m, queries := chemMapper(b)
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkVec = m.Map(queries[i%len(queries)])
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := queries[i%len(queries)]
			v := NewBitVector(m.Dim())
			var sc subiso.Scratch
			for r, f := range m.patterns {
				if f.In(g, &sc) {
					v.Set(r)
				}
			}
			sinkVec = v
		}
	})
}

var sinkVec *BitVector

// TestMapAllocsBounded pins Map's allocations: the vector, and a scratch
// that grows to the largest pattern and the one target — not matcher
// state per feature, which is what compiling the features removed.
func TestMapAllocsBounded(t *testing.T) {
	m, queries := chemMapper(t)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		sinkVec = m.Map(queries[i%len(queries)])
		i++
	})
	if allocs > 10 {
		t.Errorf("Mapper.Map allocates %.1f times per call, want <= 10", allocs)
	}
}

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
