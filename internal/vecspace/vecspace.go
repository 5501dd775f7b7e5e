// Package vecspace implements the multidimensional feature space the
// graphs are mapped into: binary containment vectors over a feature set F,
// the normalized Euclidean distance d(yi, yj) of Section 4, the inverted
// lists IF (feature → graphs) and IG (graph → features) of Section 5.1.2,
// and the Jaccard-coefficient feature-correlation score of Fig. 2.
package vecspace

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/gspan"
	"repro/internal/pool"
	"repro/internal/subiso"
)

// BitVector is a packed binary feature vector y_i ∈ {0,1}^p.
type BitVector struct {
	bits []uint64
	p    int
}

// NewBitVector returns an all-zero vector of dimension p.
func NewBitVector(p int) *BitVector {
	return &BitVector{bits: make([]uint64, (p+63)/64), p: p}
}

// Len returns the dimension p.
func (v *BitVector) Len() int { return v.p }

// Set turns bit r on.
func (v *BitVector) Set(r int) { v.bits[r/64] |= 1 << (uint(r) % 64) }

// Get reports bit r.
func (v *BitVector) Get(r int) bool { return v.bits[r/64]&(1<<(uint(r)%64)) != 0 }

// Words returns the packed 64-bit words backing the vector, bit r stored
// at words[r/64] bit r%64. The slice is owned by the vector and must not
// be modified — word-wise kernels (the flat scan) read it in place.
func (v *BitVector) Words() []uint64 { return v.bits }

// Ones returns the number of set bits |F(g)|.
func (v *BitVector) Ones() int {
	c := 0
	for _, w := range v.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// HammingDistance returns the number of differing bits between v and o.
func (v *BitVector) HammingDistance(o *BitVector) int {
	c := 0
	for i := range v.bits {
		c += bits.OnesCount64(v.bits[i] ^ o.bits[i])
	}
	return c
}

// IntersectionSize returns |F(a) ∩ F(b)|.
func (v *BitVector) IntersectionSize(o *BitVector) int {
	c := 0
	for i := range v.bits {
		c += bits.OnesCount64(v.bits[i] & o.bits[i])
	}
	return c
}

// ForEach calls fn for every set bit of v in ascending order — the
// iteration primitive posting-list construction transposes vectors with.
func (v *BitVector) ForEach(fn func(r int)) {
	for wi, w := range v.bits {
		for w != 0 {
			fn(wi*64 + bits.TrailingZeros64(w))
			w &^= w & -w
		}
	}
}

// Distance returns the normalized Euclidean distance of Section 4:
// d(yi,yj) = sqrt( (1/p) Σ (yir-yjr)^2 ) ∈ [0,1]. For binary vectors the
// sum of squared differences is the Hamming distance.
func (v *BitVector) Distance(o *BitVector) float64 {
	if v.p == 0 {
		return 0
	}
	return math.Sqrt(float64(v.HammingDistance(o)) / float64(v.p))
}

// Mapper maps graphs onto a fixed feature set F = {f1..fp} by subgraph
// isomorphism tests (φ in the paper). It is how unseen query graphs enter
// the multidimensional space. The features are compiled once (their VF2
// match order depends on the feature alone); a Mapper is immutable after
// construction and therefore safe for concurrent use: every Map call
// brings its own search scratch.
//
// A Mapper asks VF2 only what counting cannot answer. Every vertex label
// and every edge type — (smaller endpoint label, larger endpoint label,
// edge label) — that occurs in some feature owns a slot, and each feature
// lists how many of which slots it needs. An embedding is injective on
// vertices and on edges and preserves labels, so a feature's counts are
// lower bounds on those of any graph containing it: a graph short of one
// need cannot contain the feature, and its bit is 0 without a search.
type Mapper struct {
	features []*graph.Graph
	patterns []*subiso.Pattern
	etypes   []etype       // sorted; slot j counts edge type etypes[j]
	vlabels  []graph.Label // sorted; slot len(etypes)+i counts vertex label vlabels[i]
	needs    []need        // feature r needs needs[needAt[r]:needAt[r+1]], by slot
	needAt   []int32
}

// etype is an edge type: both endpoint labels, the smaller one in the high
// half of ends (as uint32 bit patterns), and the edge label.
type etype struct {
	ends uint64
	l    graph.Label
}

func edgeType(a, b, l graph.Label) etype {
	if a > b {
		a, b = b, a
	}
	return etype{ends: uint64(uint32(a))<<32 | uint64(uint32(b)), l: l}
}

func (x etype) cmp(y etype) int {
	if c := cmp.Compare(x.ends, y.ends); c != 0 {
		return c
	}
	return cmp.Compare(x.l, y.l)
}

// need is one lower bound of a feature: at least count of slot.
type need struct{ slot, count int32 }

// NewMapper builds a mapper over the given ordered feature list.
func NewMapper(features []*graph.Graph) *Mapper {
	m := &Mapper{
		features: features,
		patterns: make([]*subiso.Pattern, len(features)),
		needAt:   make([]int32, 1, len(features)+1),
	}
	for r, f := range features {
		m.patterns[r] = subiso.Compile(f)
		for v := 0; v < f.N(); v++ {
			m.vlabels = append(m.vlabels, f.VertexLabel(v))
		}
		for _, e := range f.Edges() {
			m.etypes = append(m.etypes, edgeType(f.VertexLabel(e.U), f.VertexLabel(e.V), e.Label))
		}
	}
	slices.SortFunc(m.etypes, etype.cmp)
	m.etypes = slices.Compact(m.etypes)
	slices.Sort(m.vlabels)
	m.vlabels = slices.Compact(m.vlabels)
	for _, f := range features {
		count := map[int32]int32{}
		for v := 0; v < f.N(); v++ {
			count[m.vertexSlot(f.VertexLabel(v))]++
		}
		for _, e := range f.Edges() {
			count[m.edgeSlot(edgeType(f.VertexLabel(e.U), f.VertexLabel(e.V), e.Label))]++
		}
		first := len(m.needs)
		for s, c := range count {
			m.needs = append(m.needs, need{slot: s, count: c})
		}
		slices.SortFunc(m.needs[first:], func(x, y need) int { return cmp.Compare(x.slot, y.slot) })
		m.needAt = append(m.needAt, int32(len(m.needs)))
	}
	return m
}

// edgeSlot returns edge type t's slot, or -1 when no feature has one.
func (m *Mapper) edgeSlot(t etype) int32 {
	if j, ok := slices.BinarySearchFunc(m.etypes, t, etype.cmp); ok {
		return int32(j)
	}
	return -1
}

// vertexSlot returns vertex label l's slot, or -1 when no feature has one.
func (m *Mapper) vertexSlot(l graph.Label) int32 {
	if i, ok := slices.BinarySearch(m.vlabels, l); ok {
		return int32(len(m.etypes) + i)
	}
	return -1
}

// count fills counts (one zeroed entry per slot) with g's vertex labels
// and edge types, walking each edge once from its smaller endpoint.
func (m *Mapper) count(g *graph.Graph, counts []int32) {
	for v := 0; v < g.N(); v++ {
		lv := g.VertexLabel(v)
		if s := m.vertexSlot(lv); s >= 0 {
			counts[s]++
		}
		for _, h := range g.Neighbors(v) {
			if h.To < v {
				continue
			}
			if s := m.edgeSlot(edgeType(lv, g.VertexLabel(h.To), h.Label)); s >= 0 {
				counts[s]++
			}
		}
	}
}

// admits reports whether counts meet every need of feature r — false
// proves f_r ⊄ g; true leaves the question to VF2.
func (m *Mapper) admits(counts []int32, r int) bool {
	for _, n := range m.needs[m.needAt[r]:m.needAt[r+1]] {
		if counts[n.slot] < n.count {
			return false
		}
	}
	return true
}

// Dim returns p = |F|.
func (m *Mapper) Dim() int { return len(m.features) }

// Features returns the ordered feature list (shared storage).
func (m *Mapper) Features() []*graph.Graph { return m.features }

// Map computes the binary vector of g: bit r is 1 iff f_r ⊆ g.
func (m *Mapper) Map(g *graph.Graph) *BitVector {
	v, _ := m.MapContext(context.Background(), g)
	return v
}

// MapContext is Map with cancellation: ctx is checked before each of the
// p dimensions (a subgraph-isomorphism test is the expensive unit), and a
// cancelled call returns (nil, ctx.Err()). It counts g's vertex labels and
// edge types once, in O(|V|+|E|); a dimension whose needs the counts do
// not meet stays 0 without a test, and only the rest run VF2, over one
// shared scratch. The vector is exactly the one p tests give.
func (m *Mapper) MapContext(ctx context.Context, g *graph.Graph) (*BitVector, error) {
	v := NewBitVector(len(m.patterns))
	// The counts live on the stack for up to 256 slots — far more labels
	// and edge types than mined feature sets hold; a larger vocabulary
	// costs one allocation.
	var buf [256]int32
	var counts []int32
	if n := len(m.etypes) + len(m.vlabels); n <= len(buf) {
		counts = buf[:n]
	} else {
		counts = make([]int32, n)
	}
	m.count(g, counts)
	var sc subiso.Scratch
	for r, f := range m.patterns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if m.admits(counts, r) && f.In(g, &sc) {
			v.Set(r)
		}
	}
	return v, nil
}

// MapAll maps a whole database sequentially.
func (m *Mapper) MapAll(db []*graph.Graph) []*BitVector {
	return m.MapAllWorkers(db, 1)
}

// MapAllWorkers maps a whole database with a bounded worker pool, one
// graph per task (workers <= 0 means one per CPU). Per-graph mapping is
// embarrassingly parallel — the p subgraph-isomorphism tests of graph i
// share nothing with those of graph j — so the result is identical to
// MapAll for every worker count.
func (m *Mapper) MapAllWorkers(db []*graph.Graph, workers int) []*BitVector {
	out := make([]*BitVector, len(db))
	pool.For(pool.DefaultWorkers(workers), len(db), func(i int) {
		out[i] = m.Map(db[i])
	})
	return out
}

// Index holds the inverted lists of Section 5.1.2 for a database mapped
// onto a feature set:
//
//	IF[r] = { i | f_r ⊆ g_i }   (feature → graphs, sorted)
//	IG[i] = { r | f_r ⊆ g_i }   (graph → features, sorted)
type Index struct {
	N, P int
	IF   [][]int
	IG   [][]int
}

// BuildIndex derives the inverted lists from mined features' support sets.
// Feature r's support set must list database indices in [0,n).
func BuildIndex(n int, features []*gspan.Feature) *Index {
	idx := &Index{N: n, P: len(features)}
	idx.IF = make([][]int, len(features))
	idx.IG = make([][]int, n)
	for r, f := range features {
		idx.IF[r] = append([]int(nil), f.Support...)
		for _, i := range f.Support {
			idx.IG[i] = append(idx.IG[i], r)
		}
	}
	for i := range idx.IG {
		sort.Ints(idx.IG[i])
	}
	return idx
}

// BuildIndexFromVectors derives the inverted lists from explicit binary
// vectors (used by tests and the ablations).
func BuildIndexFromVectors(vs []*BitVector) *Index {
	p := 0
	if len(vs) > 0 {
		p = vs[0].Len()
	}
	idx := &Index{N: len(vs), P: p}
	idx.IF = make([][]int, p)
	idx.IG = make([][]int, len(vs))
	for i, v := range vs {
		for r := 0; r < p; r++ {
			if v.Get(r) {
				idx.IF[r] = append(idx.IF[r], i)
				idx.IG[i] = append(idx.IG[i], r)
			}
		}
	}
	return idx
}

// Vector materializes graph i's binary vector from IG.
func (idx *Index) Vector(i int) *BitVector {
	v := NewBitVector(idx.P)
	for _, r := range idx.IG[i] {
		v.Set(r)
	}
	return v
}

// JaccardCorrelation returns the correlation score between features r and
// s, defined as the Jaccard coefficient of their support sets
// |sup(r) ∩ sup(s)| / |sup(r) ∪ sup(s)| (Fig. 2; Cheng et al. [35]).
func (idx *Index) JaccardCorrelation(r, s int) float64 {
	a, b := idx.IF[r], idx.IF[s]
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] == b[y]:
			inter++
			x++
			y++
		case a[x] < b[y]:
			x++
		default:
			y++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// TotalCorrelation sums the pairwise Jaccard correlation over the given
// feature subset — the y-axis of Fig. 2.
func (idx *Index) TotalCorrelation(selected []int) float64 {
	total := 0.0
	for i := 0; i < len(selected); i++ {
		for j := i + 1; j < len(selected); j++ {
			total += idx.JaccardCorrelation(selected[i], selected[j])
		}
	}
	return total
}

// Subindex restricts the index to the given feature subset (in the given
// order), renumbering features 0..len(sel)-1.
func (idx *Index) Subindex(sel []int) *Index {
	sub := &Index{N: idx.N, P: len(sel)}
	sub.IF = make([][]int, len(sel))
	sub.IG = make([][]int, idx.N)
	for newR, r := range sel {
		sub.IF[newR] = append([]int(nil), idx.IF[r]...)
		for _, i := range idx.IF[r] {
			sub.IG[i] = append(sub.IG[i], newR)
		}
	}
	for i := range sub.IG {
		sort.Ints(sub.IG[i])
	}
	return sub
}
