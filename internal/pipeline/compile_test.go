package pipeline

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomFilter draws a valid filter over p dimensions and labels below
// nLabels: each predicate kind is present with probability one half.
func randomFilter(rng *rand.Rand, p, nLabels int) *Filter {
	f := &Filter{}
	coin := func() bool { return rng.Intn(2) == 0 }
	rangeOf := func(hi int) (int, int) {
		lo := rng.Intn(hi)
		if coin() {
			return lo, 0
		}
		return lo, lo + rng.Intn(hi)
	}
	labels := func() []LabelCount {
		out := make([]LabelCount, 1+rng.Intn(2))
		for i := range out {
			out[i] = LabelCount{Label: rng.Intn(nLabels), MinCount: rng.Intn(4)}
		}
		return out
	}
	dims := func() []int {
		out := make([]int, 1+rng.Intn(3))
		for i := range out {
			out[i] = rng.Intn(p)
		}
		return out
	}
	if coin() {
		f.MinVertices, f.MaxVertices = rangeOf(8)
	}
	if coin() {
		f.MinEdges, f.MaxEdges = rangeOf(8)
	}
	if coin() {
		f.VertexLabels = labels()
	}
	if coin() {
		f.EdgeLabels = labels()
	}
	if coin() {
		f.DimsAll = dims()
	}
	if coin() {
		f.DimsAny = dims()
	}
	if coin() {
		f.MinOnes, f.MaxOnes = rangeOf(p + 2)
	}
	return f
}

// bruteMatch evaluates f on graph g whose mapped vector is vec, straight
// from the filter's definition.
func bruteMatch(f *Filter, g *graph.Graph, vec []bool) bool {
	in := func(x, lo, hi int) bool { return x >= lo && (hi == 0 || x <= hi) }
	count := func(lab int, edges bool) int {
		c := 0
		if edges {
			for _, e := range g.Edges() {
				if int(e.Label) == lab {
					c++
				}
			}
			return c
		}
		for v := 0; v < g.N(); v++ {
			if int(g.VertexLabel(v)) == lab {
				c++
			}
		}
		return c
	}
	if !in(g.N(), f.MinVertices, f.MaxVertices) || !in(g.M(), f.MinEdges, f.MaxEdges) {
		return false
	}
	for _, lc := range f.VertexLabels {
		if count(lc.Label, false) < max(lc.MinCount, 1) {
			return false
		}
	}
	for _, lc := range f.EdgeLabels {
		if count(lc.Label, true) < max(lc.MinCount, 1) {
			return false
		}
	}
	for _, d := range f.DimsAll {
		if !vec[d] {
			return false
		}
	}
	hit := len(f.DimsAny) == 0
	for _, d := range f.DimsAny {
		hit = hit || vec[d]
	}
	ones := 0
	for _, b := range vec {
		if b {
			ones++
		}
	}
	return hit && in(ones, f.MinOnes, f.MaxOnes)
}

// FuzzCompile checks the compiler against a brute-force evaluation of the
// filter chain. From the seed it draws up to 150 random graphs, maps them
// over p single-vertex probe dimensions as buildCatalog does (bit d:
// "contains vertex label d"), and draws a chain of one to three filters.
// For every id, Compile's Keep plus Residual must agree with the brute
// force and with the compile of a catalog without a label index;
// CompileFilters' IDs must be Keep's set bits; and Keep must set no bit
// at or beyond N.
func FuzzCompile(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 64, 65, 150} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n, p := rng.Intn(151), 1+rng.Intn(70)
		nLabels := p + 2 // labels at or beyond p match no dimension
		gs := make([]*graph.Graph, n)
		vecs := make([][]bool, n)
		for i := range gs {
			g := graph.New(0)
			nv := 1 + rng.Intn(6)
			for v := 0; v < nv; v++ {
				g.AddVertex(graph.Label(rng.Intn(nLabels)))
			}
			for v := 1; v < nv; v++ {
				g.MustAddEdge(rng.Intn(v), v, graph.Label(rng.Intn(3)))
			}
			gs[i], vecs[i] = g, make([]bool, p)
			for v := 0; v < nv; v++ {
				if l := int(g.VertexLabel(v)); l < p {
					vecs[i][l] = true
				}
			}
		}
		fs := make([]*Filter, 1+rng.Intn(3))
		for i := range fs {
			fs[i] = randomFilter(rng, p, nLabels)
		}

		cat := buildCatalog(t, gs, p)
		comp, err := Compile(fs, cat)
		if err != nil {
			t.Fatal(err)
		}
		residual, err := Compile(fs, Catalog{N: n, Block: cat.Block})
		if err != nil {
			t.Fatal(err)
		}
		listed, err := CompileFilters(fs, cat)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Keep != nil {
			if len(comp.Keep) != (n+63)/64 || n%64 != 0 && comp.Keep[n/64]>>(n%64) != 0 {
				t.Fatalf("Keep has %d words or a bit at or beyond N=%d", len(comp.Keep), n)
			}
		}
		var kept []int32
		for w, word := range comp.Keep {
			for ; word != 0; word &= word - 1 {
				kept = append(kept, int32(w*64+bits.TrailingZeros64(word)))
			}
		}
		if listed.Restricted != (comp.Keep != nil) || len(listed.IDs) != len(kept) {
			t.Fatalf("CompileFilters lists %d ids (restricted %v), Keep holds %d", len(listed.IDs), listed.Restricted, len(kept))
		}
		for i, id := range kept {
			if listed.IDs[i] != id {
				t.Fatalf("CompileFilters IDs %v, Keep's set bits %v", listed.IDs, kept)
			}
		}
		for id, g := range gs {
			want := true
			for _, f := range fs {
				want = want && bruteMatch(f, g, vecs[id])
			}
			if got := comp.Matches(id, g); got != want {
				t.Fatalf("id %d: Compile says %v, brute force %v (filters %+v)", id, got, want, fs)
			}
			if got := residual.Matches(id, g); got != want {
				t.Fatalf("id %d: residual compile says %v, brute force %v (filters %+v)", id, got, want, fs)
			}
		}
	})
}
