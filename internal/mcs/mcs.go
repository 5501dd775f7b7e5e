// Package mcs computes the maximum common subgraph (MCS) of two undirected
// labeled graphs and the two MCS-based graph dissimilarities used in the
// paper:
//
//	δ1(q,g) = 1 - |E(mcs)| / max(|E(q)|, |E(g)|)     (Bunke–Shearer, Eq. 1)
//	δ2(q,g) = 1 - 2|E(mcs)| / (|E(q)| + |E(g)|)      (Zhu et al., Eq. 2)
//
// Following the paper's usage (Lemma 4.1 freely induces common subgraphs
// from arbitrary edge subsets), the MCS is the maximum common *edge*
// subgraph: a label-preserving injective partial vertex mapping maximizing
// the number of matched edges; connectivity is not required.
//
// The solver is a McGregor-style branch and bound over vertex
// correspondences with an edge-capacity upper bound. An optional search
// budget turns it into an anytime algorithm that returns the best matching
// found so far, which is how the exact-query baseline stays tractable on
// the largest experiments.
//
// A budgeted call visits a few hundred tree nodes, so what a node costs is
// what a verified read costs. Each call therefore runs inside a solver
// arena drawn from a sync.Pool: both graphs are flattened into it once
// (dense label arrays, CSR adjacency, an n2×n2 edge-label matrix, an edge
// type id on every g2 half-edge, a flat per-depth table of remaining g1
// edges per type), and the search then touches only the arena — the
// candidate list of depth d is a slice of one n1·n2 block, the undo log of
// retired edge types is a stack, and nothing is allocated per node or per
// call (Compute allocates the Mapping it returns; the dissimilarities
// allocate nothing). The arena holds no pointer to a graph between calls
// and is a few KB for molecule-sized pairs. On 10–20 atom molecules at a
// 500-node budget that is ~40 ns per tree node against ~135 ns (0 against
// ~920 allocations per call) for the allocate-per-node solver it
// replaced, which survives as the oracle in reference_test.go: the two
// walk the same tree in the same order — candidate ties included, see
// byGainDesc — so Edges, Mapping, Exact and Nodes agree for every pair
// and every budget.
package mcs

import (
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
)

// Options configures the MCS search.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound tree nodes explored.
	// 0 means unlimited (fully exact). When the budget is exhausted the
	// best matching found so far is returned.
	MaxNodes int64
}

// Result reports an MCS computation.
type Result struct {
	// Edges is the number of edges in the common subgraph found.
	Edges int
	// Mapping maps vertices of the first (smaller) argument graph to
	// vertices of the second; -1 marks unmapped vertices.
	Mapping []int
	// Exact records whether the search completed within its budget, i.e.
	// Edges is the true |E(mcs)|.
	Exact bool
	// Nodes is the number of search-tree nodes explored.
	Nodes int64
}

// Size returns |E(mcs(a,b))| with an unbounded exact search.
func Size(a, b *graph.Graph) int {
	r := Compute(a, b, Options{})
	return r.Edges
}

// Compute runs the branch-and-bound MCS search between a and b.
func Compute(a, b *graph.Graph, opt Options) Result {
	s := solvers.Get().(*solver)
	defer solvers.Put(s)
	return s.compute(a, b, opt)
}

// edges is Compute without the Result: |E| of the common subgraph found
// within opt's budget. It is what every dissimilarity is computed from,
// and it allocates nothing once the pooled arena has grown to the pair.
func edges(a, b *graph.Graph, opt Options) int {
	s := solvers.Get().(*solver)
	defer solvers.Put(s)
	s.solve(a, b, opt)
	return s.best
}

// solvers recycles solver arenas. A solver holds no reference to the
// graphs of its last pair and a few KB of scratch sized to the largest
// pair it has seen, so the pool costs one arena per P under load and
// nothing after a GC cycle with no MCS traffic.
var solvers = sync.Pool{New: func() any { return new(solver) }}

// noEdge marks a non-adjacent pair in solver.elab2. Edge labels are
// int32, so no label widens to it.
const noEdge = math.MinInt64

// typeKey identifies an edge label type: the endpoint labels in
// ascending order around the edge label.
type typeKey struct {
	a, e, b graph.Label
}

// cand is one way to extend the matching at a tree node: map the node's
// g1 vertex to v2, immediately matching gain edges.
type cand struct {
	v2, gain int32
}

// byGainDesc orders candidates by descending gain. It is the three-way
// form of the `gain[i] > gain[j]` less function the solver has always
// sorted with, and slices.SortFunc instantiates the same pdqsort
// template as package sort's closure-driven slice sort the reference
// solver calls, so candidates of equal gain leave the sort in the same
// (unstable, but deterministic) order — the tree is walked in the same
// order and a budgeted search stops at the same node.
func byGainDesc(a, b cand) int { return int(b.gain) - int(a.gain) }

// mappedNeighbor is an edge from the current g1 vertex to an already
// mapped one, seen from g2: the image vertex and the label the g2 edge
// must carry.
type mappedNeighbor struct {
	img int32
	lab int64
}

// solver is one branch-and-bound search and the arena it runs in. Every
// slice is grown on demand and fully re-initialised by solve, so a
// solver can be reused for any sequence of pairs; nothing in it is
// allocated per tree node.
type solver struct {
	maxNodes  int64
	n1, n2    int
	cur       int // edges matched so far
	best      int
	nodes     int64
	budgetHit bool

	// g1, the graph searched from, flattened: labels, CSR adjacency with
	// edge labels widened to compare against elab2, and the processing
	// order (order[d] is the vertex decided at depth d; pos is its
	// inverse, conn scratch for building it).
	lab1  []graph.Label
	off1  []int32
	to1   []int32
	elab1 []int64
	type1 []int32 // edge type id, on the half-edge leaving the lower endpoint
	order []int32
	pos   []int32
	conn  []int32

	// g2 flattened: labels, CSR adjacency carrying the edge type id of
	// every half-edge (so occupy compares no labels), and the n2×n2
	// edge-label matrix gain reads (noEdge where not adjacent).
	lab2  []graph.Label
	off2  []int32
	to2   []int32
	type2 []int32
	elab2 []int64

	core    []int32 // g1 vertex -> g2 vertex or -1
	bestMap []int32 // core at the best matching seen
	used    []bool  // g2 vertex is an image

	// Label-type-aware bound state. An edge type is the triple
	// (min(l_u,l_v), l_e, max(l_u,l_v)); types is the dense id table
	// over both graphs, searched linearly (molecule-like graphs have
	// about a dozen), and nt its length. remain1[d*nt+t] counts the g1 edges of type t with an endpoint at
	// order position >= d, i.e. still matchable at depth d. avail2[t]
	// counts the g2 edges of type t that could still be matched: an edge
	// leaves the pool the moment its second endpoint becomes used (it
	// was either matched, already counted in cur, or is permanently
	// dead). retired is the undo log of those departures; occupy's
	// caller keeps the stack height to release back to.
	types   []typeKey
	remain1 []int32
	avail2  []int32
	retired []int32

	// cands[d*n2:(d+1)*n2] holds depth d's candidate list while its
	// subtree is walked; nbrs is per-node scratch.
	cands []cand
	nbrs  []mappedNeighbor
}

// grow returns s resized to n elements, reallocating only when the
// arena has never been this large. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// compute runs solve and copies the best mapping out of the arena.
func (s *solver) compute(a, b *graph.Graph, opt Options) Result {
	swapped := s.solve(a, b, opt)
	res := Result{Edges: s.best, Exact: !s.budgetHit, Nodes: s.nodes}
	if a.N() == 0 {
		return res // a nil Mapping, as ever
	}
	// The mapping is first-arg → second-arg; a swapped search found its
	// inverse.
	res.Mapping = make([]int, a.N())
	if swapped {
		for i := range res.Mapping {
			res.Mapping[i] = -1
		}
		for v1, v2 := range s.bestMap {
			if v2 >= 0 {
				res.Mapping[v2] = v1
			}
		}
	} else {
		for v1, v2 := range s.bestMap {
			res.Mapping[v1] = int(v2)
		}
	}
	return res
}

// solve searches for the MCS of a and b, leaving the outcome in best,
// bestMap, nodes and budgetHit. It searches from the graph with fewer
// vertices for a shallower tree and reports whether that made b the
// graph bestMap is indexed by.
func (s *solver) solve(a, b *graph.Graph, opt Options) (swapped bool) {
	if a.N() > b.N() {
		a, b = b, a
		swapped = true
	}
	s.maxNodes = opt.MaxNodes
	s.cur, s.best, s.nodes, s.budgetHit = 0, 0, 0, false
	s.types = s.types[:0]
	s.load2(b)
	s.load1(a)
	s.loadBounds()
	s.search(0)
	return swapped
}

// typeID returns the dense id of the edge type (la, le, lb), assigning
// the next one on first sight.
func (s *solver) typeID(la, le, lb graph.Label) int32 {
	if la > lb {
		la, lb = lb, la
	}
	k := typeKey{la, le, lb}
	for i, t := range s.types {
		if t == k {
			return int32(i)
		}
	}
	s.types = append(s.types, k)
	return int32(len(s.types) - 1)
}

// load2 flattens g2 into the arena and resets the state indexed by its
// vertices and edges.
func (s *solver) load2(g *graph.Graph) {
	n := g.N()
	s.n2 = n
	s.lab2 = grow(s.lab2, n)
	s.used = grow(s.used, n)
	for v := range s.lab2 {
		s.lab2[v] = g.VertexLabel(v)
		s.used[v] = false
	}
	s.elab2 = grow(s.elab2, n*n)
	for i := range s.elab2 {
		s.elab2[i] = noEdge
	}
	s.off2 = grow(s.off2, n+1)
	s.to2 = grow(s.to2, 2*g.M())
	s.type2 = grow(s.type2, 2*g.M())
	s.retired = grow(s.retired, g.M())[:0]
	i := int32(0)
	for v := 0; v < n; v++ {
		s.off2[v] = i
		for _, h := range g.Neighbors(v) {
			s.to2[i], s.type2[i] = int32(h.To), s.typeID(s.lab2[v], h.Label, s.lab2[h.To])
			s.elab2[v*n+h.To] = int64(h.Label)
			i++
		}
	}
	s.off2[n] = i
}

// load1 flattens g1 into the arena, resets the state indexed by its
// vertices and fixes the processing order.
func (s *solver) load1(g *graph.Graph) {
	n := g.N()
	s.n1 = n
	s.lab1 = grow(s.lab1, n)
	s.core = grow(s.core, n)
	s.bestMap = grow(s.bestMap, n)
	s.pos = grow(s.pos, n)
	s.conn = grow(s.conn, n)
	s.off1 = grow(s.off1, n+1)
	s.to1 = grow(s.to1, 2*g.M())
	s.elab1 = grow(s.elab1, 2*g.M())
	s.type1 = grow(s.type1, 2*g.M())
	s.cands = grow(s.cands, n*s.n2)
	i, maxDeg := int32(0), 0
	for v := 0; v < n; v++ {
		s.lab1[v] = g.VertexLabel(v)
		s.core[v], s.bestMap[v], s.pos[v], s.conn[v] = -1, -1, -1, 0
		s.off1[v] = i
		for _, h := range g.Neighbors(v) {
			s.to1[i], s.elab1[i] = int32(h.To), int64(h.Label)
			if v < h.To {
				s.type1[i] = s.typeID(s.lab1[v], h.Label, g.VertexLabel(h.To))
			}
			i++
		}
		maxDeg = max(maxDeg, g.Degree(v))
	}
	s.off1[n] = i
	s.nbrs = grow(s.nbrs, maxDeg)

	// Connectivity-aware order: start from the highest-degree vertex and
	// repeatedly append the unplaced vertex with the most edges into the
	// placed set (ties by degree, then lowest id). Early placements then
	// carry immediate edge gains, which makes the branch-and-bound
	// pruning effective. conn[v] counts v's placed neighbours.
	s.order = grow(s.order, n)
	for d := range s.order {
		best, bestConn, bestDeg := -1, int32(-1), int32(-1)
		for v := 0; v < n; v++ {
			if s.pos[v] >= 0 {
				continue
			}
			deg := s.off1[v+1] - s.off1[v]
			if s.conn[v] > bestConn || (s.conn[v] == bestConn && deg > bestDeg) {
				best, bestConn, bestDeg = v, s.conn[v], deg
			}
		}
		s.order[d], s.pos[best] = int32(best), int32(d)
		for _, w := range s.to1[s.off1[best]:s.off1[best+1]] {
			s.conn[w]++
		}
	}
}

// loadBounds lays out the bound tables once both graphs have named
// their edge types: every g2 edge is available, and a g1 edge is
// matchable while depth <= the later of its endpoints' positions — count
// it there, then accumulate towards depth 0.
func (s *solver) loadBounds() {
	n, nt := s.n1, len(s.types)
	s.avail2 = grow(s.avail2, nt)
	clear(s.avail2)
	for v := 0; v < s.n2; v++ {
		for i := s.off2[v]; i < s.off2[v+1]; i++ {
			if int32(v) < s.to2[i] {
				s.avail2[s.type2[i]]++
			}
		}
	}
	s.remain1 = grow(s.remain1, (n+1)*nt)
	clear(s.remain1)
	for v := 0; v < n; v++ {
		for i := s.off1[v]; i < s.off1[v+1]; i++ {
			if w := s.to1[i]; int32(v) < w {
				s.remain1[int(max(s.pos[v], s.pos[w]))*nt+int(s.type1[i])]++
			}
		}
	}
	for d := n - 1; d >= 0; d-- {
		row, next := s.remain1[d*nt:(d+1)*nt], s.remain1[(d+1)*nt:(d+2)*nt]
		for t := range row {
			row[t] += next[t]
		}
	}
}

// boundExceeds reports whether the per-type capacity bound at depth —
// cur plus, per type, the minimum of still-matchable g1 edges and
// still-available g2 edges — is above best. The bound is valid because
// every future match consumes one edge of the same type on each side.
func (s *solver) boundExceeds(depth int) bool {
	ub := s.cur
	nt := len(s.avail2)
	for t, c := range s.remain1[depth*nt : (depth+1)*nt] {
		ub += int(min(c, s.avail2[t]))
	}
	return ub > s.best
}

// occupy marks v2 used and retires every g2 edge whose second endpoint
// just became used from the availability pool, logging the retired type
// ids for release.
func (s *solver) occupy(v2 int32) {
	s.used[v2] = true
	for i := s.off2[v2]; i < s.off2[v2+1]; i++ {
		if s.used[s.to2[i]] {
			t := s.type2[i]
			s.avail2[t]--
			s.retired = append(s.retired, t)
		}
	}
}

// release undoes occupy(v2) given the height of the retired log before
// it.
func (s *solver) release(v2 int32, mark int) {
	for _, t := range s.retired[mark:] {
		s.avail2[t]++
	}
	s.retired = s.retired[:mark]
	s.used[v2] = false
}

// search visits one tree node: depth g1 vertices are decided, cur edges
// matched. It reports whether the budget ran out (abort the whole
// search, leaving the arena dirty for the next solve to reset).
func (s *solver) search(depth int) bool {
	s.nodes++
	if s.maxNodes > 0 && s.nodes > s.maxNodes {
		s.budgetHit = true
		return true
	}
	if s.cur > s.best {
		s.best = s.cur
		copy(s.bestMap, s.core)
	}
	if depth == s.n1 || !s.boundExceeds(depth) {
		return false
	}
	v1 := s.order[depth]
	l1 := s.lab1[v1]

	// The edges a mapping of v1 can match right now lead to its already
	// mapped neighbours; look them up once, not per candidate.
	nbrs := s.nbrs[:0]
	for i := s.off1[v1]; i < s.off1[v1+1]; i++ {
		if img := s.core[s.to1[i]]; img >= 0 {
			nbrs = append(nbrs, mappedNeighbor{img, s.elab1[i]})
		}
	}
	// Try mapping v1 to each compatible unused g2 vertex, preferring
	// candidates that immediately match more edges.
	n2 := s.n2
	cands := s.cands[depth*n2 : depth*n2 : (depth+1)*n2]
	for v2 := 0; v2 < n2; v2++ {
		if s.used[v2] || s.lab2[v2] != l1 {
			continue
		}
		row := s.elab2[v2*n2 : (v2+1)*n2]
		gain := int32(0)
		for _, nb := range nbrs {
			if row[nb.img] == nb.lab {
				gain++
			}
		}
		cands = append(cands, cand{int32(v2), gain})
	}
	slices.SortFunc(cands, byGainDesc)

	for _, c := range cands {
		mark := len(s.retired)
		s.core[v1] = c.v2
		s.occupy(c.v2)
		s.cur += int(c.gain)
		if s.search(depth + 1) {
			return true
		}
		s.cur -= int(c.gain)
		s.release(c.v2, mark)
		s.core[v1] = -1
	}
	// Also try leaving v1 unmapped.
	return s.search(depth + 1)
}
