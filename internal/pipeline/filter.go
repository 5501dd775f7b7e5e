package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/graph"
	"repro/internal/posting"
	"repro/internal/vecspace"
)

// Filter is a declarative structural predicate over graphs. Unlike a
// SearchOptions.Predicate closure it is inspectable, so the engine can
// (a) push the parts it can answer without a graph — dimension and ones
// predicates from the vector tiles, label predicates from the label
// index — below the scan as one keep bitset and (b) serialize the whole
// thing to canonical bytes for the query cache's generation-fenced key.
//
// Zero values mean "unconstrained": a Max* of 0 is no upper bound, an
// empty label/dim slice imposes nothing.
type Filter struct {
	// Vertex/edge count ranges (inclusive; 0 max = unbounded).
	MinVertices int `json:"min_vertices,omitempty"`
	MaxVertices int `json:"max_vertices,omitempty"`
	MinEdges    int `json:"min_edges,omitempty"`
	MaxEdges    int `json:"max_edges,omitempty"`

	// Label-histogram predicates: every listed label must occur at
	// least MinCount times (MinCount 0 or 1 = presence).
	VertexLabels []LabelCount `json:"vertex_labels,omitempty"`
	EdgeLabels   []LabelCount `json:"edge_labels,omitempty"`

	// Dimension-bit predicates on the mapped vector: DimsAll requires
	// every listed dimension bit set, DimsAny at least one.
	DimsAll []int `json:"dims_all,omitempty"`
	DimsAny []int `json:"dims_any,omitempty"`

	// Ones-count range over the mapped vector (inclusive; 0 max =
	// unbounded) — a density band over dimension space.
	MinOnes int `json:"min_ones,omitempty"`
	MaxOnes int `json:"max_ones,omitempty"`
}

// LabelCount is one label-histogram constraint.
type LabelCount struct {
	Label    int `json:"label"`
	MinCount int `json:"min_count,omitempty"`
}

// Validate rejects structurally impossible filters.
func (f *Filter) Validate() error {
	for _, v := range []struct {
		name     string
		min, max int
	}{
		{"vertices", f.MinVertices, f.MaxVertices},
		{"edges", f.MinEdges, f.MaxEdges},
		{"ones", f.MinOnes, f.MaxOnes},
	} {
		if v.min < 0 || v.max < 0 {
			return fmt.Errorf("%s range must be non-negative, got [%d, %d]", v.name, v.min, v.max)
		}
		if v.max > 0 && v.max < v.min {
			return fmt.Errorf("%s range is empty: max %d < min %d", v.name, v.max, v.min)
		}
	}
	for _, l := range []struct {
		name string
		lcs  []LabelCount
	}{{"vertex", f.VertexLabels}, {"edge", f.EdgeLabels}} {
		for _, lc := range l.lcs {
			if lc.Label < 0 || lc.MinCount < 0 {
				return fmt.Errorf("%s label constraint {%d, %d} must be non-negative", l.name, lc.Label, lc.MinCount)
			}
			if lc.Label > math.MaxInt32 {
				return fmt.Errorf("%s label %d out of range [0, %d]", l.name, lc.Label, math.MaxInt32)
			}
		}
	}
	for _, d := range f.DimsAll {
		if d < 0 {
			return fmt.Errorf("dims_all dimension %d must be non-negative", d)
		}
	}
	for _, d := range f.DimsAny {
		if d < 0 {
			return fmt.Errorf("dims_any dimension %d must be non-negative", d)
		}
	}
	return nil
}

// normalized returns a canonical copy: labels sorted with duplicates
// merged (max MinCount wins, 0 lifted to 1), dims sorted and deduped.
// The copy shares nothing mutable with the receiver.
func (f *Filter) normalized() *Filter {
	n := *f
	n.VertexLabels = normLabels(f.VertexLabels)
	n.EdgeLabels = normLabels(f.EdgeLabels)
	n.DimsAll = normDims(f.DimsAll)
	n.DimsAny = normDims(f.DimsAny)
	return &n
}

func normLabels(lcs []LabelCount) []LabelCount {
	if len(lcs) == 0 {
		return nil
	}
	out := make([]LabelCount, len(lcs))
	copy(out, lcs)
	for i := range out {
		if out[i].MinCount < 1 {
			out[i].MinCount = 1
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	w := 0
	for _, lc := range out[1:] {
		if lc.Label == out[w].Label {
			if lc.MinCount > out[w].MinCount {
				out[w].MinCount = lc.MinCount
			}
			continue
		}
		w++
		out[w] = lc
	}
	return out[:w+1]
}

func normDims(ds []int) []int {
	if len(ds) == 0 {
		return nil
	}
	out := make([]int, len(ds))
	copy(out, ds)
	sort.Ints(out)
	w := 0
	for _, d := range out[1:] {
		if d == out[w] {
			continue
		}
		w++
		out[w] = d
	}
	return out[:w+1]
}

// Canon appends the filter's canonical byte encoding to dst. Two
// filters with the same meaning (after normalization) encode
// identically, which is what lets graphdim's cache key cover
// declarative filters where an opaque Predicate must bypass the cache.
// The encoding is a fixed field order of uvarints with length-prefixed
// lists; it never needs decoding, only equality.
func (f *Filter) Canon(dst []byte) []byte {
	n := f.normalized()
	put := func(v int) {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	put(n.MinVertices)
	put(n.MaxVertices)
	put(n.MinEdges)
	put(n.MaxEdges)
	put(len(n.VertexLabels))
	for _, lc := range n.VertexLabels {
		put(lc.Label)
		put(lc.MinCount)
	}
	put(len(n.EdgeLabels))
	for _, lc := range n.EdgeLabels {
		put(lc.Label)
		put(lc.MinCount)
	}
	put(len(n.DimsAll))
	for _, d := range n.DimsAll {
		put(d)
	}
	put(len(n.DimsAny))
	for _, d := range n.DimsAny {
		put(d)
	}
	put(n.MinOnes)
	put(n.MaxOnes)
	return dst
}

// CanonFilters encodes a filter chain: a uvarint count followed by each
// filter's Canon bytes.
func CanonFilters(fs []*Filter, dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = f.Canon(dst)
	}
	return dst
}

// Catalog is what a snapshot offers the filter compiler: the id count,
// the vector block whose tiles answer dimension and ones predicates, and
// the per-label posting index. Block may be nil only when no filter has
// a dimension or ones predicate; Labels may be nil, and label predicates
// then fall back to residual per-graph evaluation. Labels, when set,
// covers exactly the ids [0, N). Post is read by nothing: the benchmark
// harness still sets it, and ROADMAP 4(b) deletes it.
type Catalog struct {
	N      int
	Block  *vecspace.Block
	Labels *posting.LabelIndex
	Post   *posting.Index
}

// Compiled is the executable form of a filter chain against one
// catalog. Keep is the bitset (id i is bit i%64 of Keep[i/64]) of the ids
// passing every pushed-down predicate, with no bit set at or beyond N; it
// is nil when no predicate pushed down (keep everything), and an
// all-clear Keep is a restriction to nothing. Residual, when non-nil,
// must additionally hold for a graph to pass. IDs and Restricted are
// Keep listed as sorted ids, set only by CompileFilters.
type Compiled struct {
	Keep       []uint64
	Residual   func(id int, g *graph.Graph) bool
	IDs        []int32
	Restricted bool
}

// Matches reports whether graph id/g passes the compiled filter — a spot
// check for tests; scans walk Keep directly.
func (c *Compiled) Matches(id int, g *graph.Graph) bool {
	if c.Keep != nil && c.Keep[id/64]&(1<<(id%64)) == 0 {
		return false
	}
	return c.Residual == nil || c.Residual(id, g)
}

// KeepAll returns the keep bitset of n ids with every id kept.
func KeepAll(n int) []uint64 {
	keep := make([]uint64, (n+63)/64)
	for w := range keep {
		keep[w] = ^uint64(0)
	}
	if n%64 != 0 {
		keep[len(keep)-1] = 1<<(n%64) - 1
	}
	return keep
}

// Compile compiles a filter chain against a catalog, ANDing every
// predicate the snapshot can answer without a graph into one keep
// bitset, and folding the rest into a residual per-graph predicate.
// Filters are ANDed. Dimension and ones predicates are one pass over the
// block's tiles per filter; each label predicate ANDs its label list
// into Keep in one pass, allocating nothing. Dimension predicates
// that reference a dimension outside [0, Block.P()) are an error (the
// wire surface maps it to a 400).
func Compile(fs []*Filter, cat Catalog) (*Compiled, error) {
	c := &Compiled{}
	var residuals []func(id int, g *graph.Graph) bool
	for _, f0 := range fs {
		f := f0.normalized()
		dims := len(f.DimsAll) > 0 || len(f.DimsAny) > 0 || f.MinOnes > 0 || f.MaxOnes > 0
		labels := cat.Labels != nil && (len(f.VertexLabels) > 0 || len(f.EdgeLabels) > 0)
		if (dims || labels) && c.Keep == nil {
			c.Keep = KeepAll(cat.N)
		}

		// Dimension-bit predicates read the vectors; there is no residual
		// form (graphs alone don't carry their mapped vector).
		if dims {
			if cat.Block == nil {
				return nil, fmt.Errorf("dimension predicates need a vector block")
			}
			if err := f.CheckDims(cat.Block.P()); err != nil {
				return nil, err
			}
			cat.Block.Keep(c.Keep, f.DimsAll, f.DimsAny, f.MinOnes, f.MaxOnes)
		}

		// Label predicates: the label index's lists when there is one,
		// residual histogram scan otherwise.
		if labels {
			for _, lc := range f.VertexLabels {
				cat.Labels.KeepVertex(c.Keep, graph.Label(lc.Label), lc.MinCount)
			}
			for _, lc := range f.EdgeLabels {
				cat.Labels.KeepEdge(c.Keep, graph.Label(lc.Label), lc.MinCount)
			}
		} else if len(f.VertexLabels) > 0 || len(f.EdgeLabels) > 0 {
			vl, el := f.VertexLabels, f.EdgeLabels
			residuals = append(residuals, func(_ int, g *graph.Graph) bool {
				return labelsMatch(g, vl, el)
			})
		}

		// Count ranges stay residual: O(1) per graph, not worth lists.
		if f.MinVertices > 0 || f.MaxVertices > 0 || f.MinEdges > 0 || f.MaxEdges > 0 {
			mv, xv, me, xe := f.MinVertices, f.MaxVertices, f.MinEdges, f.MaxEdges
			residuals = append(residuals, func(_ int, g *graph.Graph) bool {
				if g.N() < mv || (xv > 0 && g.N() > xv) {
					return false
				}
				return g.M() >= me && (xe == 0 || g.M() <= xe)
			})
		}
	}
	if len(residuals) == 1 {
		c.Residual = residuals[0]
	} else if len(residuals) > 1 {
		c.Residual = func(id int, g *graph.Graph) bool {
			for _, r := range residuals {
				if !r(id, g) {
					return false
				}
			}
			return true
		}
	}
	return c, nil
}

// CompileFilters is Compile plus Keep listed as sorted IDs, with
// Restricted telling "no pushdown" (IDs nil, scan everything) from
// "pushdown matched nothing" (IDs empty). Only the benchmark harness
// calls it; ROADMAP 4(b) deletes it.
func CompileFilters(fs []*Filter, cat Catalog) (*Compiled, error) {
	c, err := Compile(fs, cat)
	if err != nil || c.Keep == nil {
		return c, err
	}
	c.Restricted = true
	c.IDs = []int32{}
	for w, word := range c.Keep {
		for ; word != 0; word &= word - 1 {
			c.IDs = append(c.IDs, int32(w*64+bits.TrailingZeros64(word)))
		}
	}
	return c, nil
}

// AnalyzeFilters reports the pushdown/fallback predicate split Compile
// produces against a catalog with a label index, without touching any
// data — the cheap form behind Stats and the /metrics counters.
func AnalyzeFilters(fs []*Filter) (pushed, fallback int) {
	for _, f0 := range fs {
		f := f0.normalized()
		pushed += len(f.DimsAll) + len(f.VertexLabels) + len(f.EdgeLabels)
		if len(f.DimsAny) > 0 {
			pushed++
		}
		if f.MinOnes > 0 || f.MaxOnes > 0 {
			pushed++
		}
		if f.MinVertices > 0 || f.MaxVertices > 0 || f.MinEdges > 0 || f.MaxEdges > 0 {
			fallback++
		}
	}
	return pushed, fallback
}

// CheckDims rejects dimension predicates referencing dimensions outside
// [0, p). Compile runs it against the block; a wire frontend runs it up
// front, so it can 400 before any shard work runs.
func (f *Filter) CheckDims(p int) error {
	for _, d := range f.DimsAll {
		if d >= p {
			return fmt.Errorf("dims_all dimension %d out of range [0, %d)", d, p)
		}
	}
	for _, d := range f.DimsAny {
		if d >= p {
			return fmt.Errorf("dims_any dimension %d out of range [0, %d)", d, p)
		}
	}
	return nil
}

// labelsMatch is the residual label-histogram check used when no label
// index is available: single pass over vertices and edges, early out.
func labelsMatch(g *graph.Graph, vl, el []LabelCount) bool {
	for _, lc := range vl {
		need, lab := lc.MinCount, graph.Label(lc.Label)
		for v := 0; v < g.N() && need > 0; v++ {
			if g.VertexLabel(v) == lab {
				need--
			}
		}
		if need > 0 {
			return false
		}
	}
	for _, lc := range el {
		need, lab := lc.MinCount, graph.Label(lc.Label)
		for _, e := range g.Edges() {
			if e.Label == lab {
				if need--; need == 0 {
					break
				}
			}
		}
		if need > 0 {
			return false
		}
	}
	return true
}
