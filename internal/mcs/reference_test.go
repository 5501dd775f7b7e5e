package mcs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// The recursive branch-and-bound solver that internal/mcs shipped until
// the arena solver replaced it, kept verbatim (identifiers prefixed ref)
// as the oracle TestSolverWalksTheSameTree and BenchmarkCompute compare
// against: it defines the tree, the visiting order and the tie order the
// production solver must reproduce.

// refCompute runs the branch-and-bound MCS search between a and b.
func refCompute(a, b *graph.Graph, opt Options) Result {
	// Search from the smaller graph (fewer vertices) for a shallower tree.
	swapped := false
	if a.N() > b.N() {
		a, b = b, a
		swapped = true
	}
	s := &refSolver{g1: a, g2: b, opt: opt}
	s.run()
	res := Result{Edges: s.best, Exact: !s.budgetHit, Nodes: s.nodes}
	if swapped {
		// Invert the mapping so it is first-arg → second-arg.
		inv := make([]int, b.N())
		for i := range inv {
			inv[i] = -1
		}
		for v1, v2 := range s.bestMap {
			if v2 >= 0 {
				inv[v2] = v1
			}
		}
		res.Mapping = inv
	} else {
		res.Mapping = append([]int(nil), s.bestMap...)
	}
	return res
}

type refSolver struct {
	g1, g2 *graph.Graph
	opt    Options

	order     []int // g1 vertices in processing order (degree desc)
	pos       []int // g1 vertex -> position in order
	core      []int // g1 vertex -> g2 vertex or -1
	used      []bool
	cur       int // edges matched so far
	best      int
	bestMap   []int
	nodes     int64
	budgetHit bool

	// Label-type-aware bound state. An edge type is the triple
	// (min(l_u,l_v), l_e, max(l_u,l_v)). remain1[d] lists, per type, how
	// many g1 edges with at least one endpoint at order position >= d are
	// still matchable at depth d (precomputed). avail2 counts, per type,
	// the g2 edges that could still be matched: an edge leaves the pool
	// the moment its second endpoint becomes used (it was either matched,
	// already counted in cur, or is permanently dead).
	types   map[refTypeKey]int // type -> dense id
	remain1 [][]int32          // remain1[d][typeID]
	avail2  []int32            // avail2[typeID], maintained incrementally
}

// refTypeKey identifies an edge label type.
type refTypeKey struct {
	a, e, b graph.Label
}

func refEdgeType(g *graph.Graph, e graph.Edge) refTypeKey {
	la, lb := g.VertexLabel(e.U), g.VertexLabel(e.V)
	if la > lb {
		la, lb = lb, la
	}
	return refTypeKey{la, e.Label, lb}
}

func (s *refSolver) run() {
	n1 := s.g1.N()
	// Connectivity-aware order: start from the highest-degree vertex and
	// repeatedly append the unplaced vertex with the most edges into the
	// placed set (ties by degree). Early placements then carry immediate
	// edge gains, which makes the branch-and-bound pruning effective.
	s.order = make([]int, 0, n1)
	placed := make([]bool, n1)
	for len(s.order) < n1 {
		best, bestConn, bestDeg := -1, -1, -1
		for v := 0; v < n1; v++ {
			if placed[v] {
				continue
			}
			conn := 0
			for _, h := range s.g1.Neighbors(v) {
				if placed[h.To] {
					conn++
				}
			}
			if conn > bestConn || (conn == bestConn && s.g1.Degree(v) > bestDeg) {
				best, bestConn, bestDeg = v, conn, s.g1.Degree(v)
			}
		}
		placed[best] = true
		s.order = append(s.order, best)
	}
	s.pos = make([]int, n1)
	for d, v := range s.order {
		s.pos[v] = d
	}
	s.core = make([]int, n1)
	for i := range s.core {
		s.core[i] = -1
	}
	s.used = make([]bool, s.g2.N())
	s.bestMap = make([]int, n1)
	for i := range s.bestMap {
		s.bestMap[i] = -1
	}

	// Dense type ids over both graphs' edge types.
	s.types = map[refTypeKey]int{}
	for _, e := range s.g1.Edges() {
		k := refEdgeType(s.g1, e)
		if _, ok := s.types[k]; !ok {
			s.types[k] = len(s.types)
		}
	}
	for _, e := range s.g2.Edges() {
		k := refEdgeType(s.g2, e)
		if _, ok := s.types[k]; !ok {
			s.types[k] = len(s.types)
		}
	}
	nt := len(s.types)

	// remain1[d][t]: g1 edges of type t still matchable at depth d.
	s.remain1 = make([][]int32, n1+1)
	for d := 0; d <= n1; d++ {
		s.remain1[d] = make([]int32, nt)
	}
	for _, e := range s.g1.Edges() {
		t := s.types[refEdgeType(s.g1, e)]
		hi := s.pos[e.U]
		if s.pos[e.V] > hi {
			hi = s.pos[e.V]
		}
		// Matchable while depth <= hi.
		for d := 0; d <= hi; d++ {
			s.remain1[d][t]++
		}
	}
	s.avail2 = make([]int32, nt)
	for _, e := range s.g2.Edges() {
		s.avail2[s.types[refEdgeType(s.g2, e)]]++
	}

	s.search(0)
}

// upperBound returns cur plus the per-type minimum of still-matchable g1
// edges and still-available g2 edges — a valid bound because every future
// match consumes one edge of the same type on each side.
func (s *refSolver) upperBound(depth int) int {
	ub := s.cur
	r := s.remain1[depth]
	for t, c := range r {
		if c == 0 {
			continue
		}
		a := s.avail2[t]
		if a < c {
			ub += int(a)
		} else {
			ub += int(c)
		}
	}
	return ub
}

// occupy marks v2 used and retires every g2 edge whose second endpoint
// just became used from the availability pool. It returns the retired
// type ids for undo.
func (s *refSolver) occupy(v2 int) []int {
	s.used[v2] = true
	var retired []int
	for _, h := range s.g2.Neighbors(v2) {
		if s.used[h.To] {
			la, lb := s.g2.VertexLabel(v2), s.g2.VertexLabel(h.To)
			if la > lb {
				la, lb = lb, la
			}
			t := s.types[refTypeKey{la, h.Label, lb}]
			s.avail2[t]--
			retired = append(retired, t)
		}
	}
	return retired
}

func (s *refSolver) release(v2 int, retired []int) {
	for _, t := range retired {
		s.avail2[t]++
	}
	s.used[v2] = false
}

func (s *refSolver) search(depth int) bool {
	s.nodes++
	if s.opt.MaxNodes > 0 && s.nodes > s.opt.MaxNodes {
		s.budgetHit = true
		return true // abort
	}
	if s.cur > s.best {
		s.best = s.cur
		copy(s.bestMap, s.core)
	}
	if depth == len(s.order) {
		return false
	}
	// Per-label-type capacity bound.
	if s.upperBound(depth) <= s.best {
		return false
	}
	v1 := s.order[depth]
	l1 := s.g1.VertexLabel(v1)

	// Try mapping v1 to each compatible unused g2 vertex, preferring
	// candidates that immediately match more edges.
	type cand struct{ v2, gain int }
	var cands []cand
	for v2 := 0; v2 < s.g2.N(); v2++ {
		if s.used[v2] || s.g2.VertexLabel(v2) != l1 {
			continue
		}
		cands = append(cands, cand{v2, s.gain(v1, v2)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })

	for _, c := range cands {
		s.core[v1] = c.v2
		retired := s.occupy(c.v2)
		s.cur += c.gain
		if s.search(depth + 1) {
			return true
		}
		s.cur -= c.gain
		s.release(c.v2, retired)
		s.core[v1] = -1
	}
	// Also try leaving v1 unmapped.
	return s.search(depth + 1)
}

// gain counts the edges from v1 to already-mapped g1 vertices that are
// preserved (same edge label) when v1 is mapped to v2.
func (s *refSolver) gain(v1, v2 int) int {
	g := 0
	for _, h := range s.g1.Neighbors(v1) {
		m := s.core[h.To]
		if m < 0 {
			continue
		}
		if l, ok := s.g2.EdgeLabel(v2, m); ok && l == h.Label {
			g++
		}
	}
	return g
}

// maxLabelClass returns the size of g's largest vertex-label class: the
// longest candidate list a search into g can sort. Above 12 elements
// pdqsort leaves its insertion sort for the pivoting path, the only
// place the order of equal-gain candidates is not simply their input
// order.
func maxLabelClass(g *graph.Graph) int {
	vertex, _ := g.LabelHistogram()
	m := 0
	for _, c := range vertex {
		m = max(m, c)
	}
	return m
}

// TestSolverWalksTheSameTree pins the arena solver to the reference one:
// for every pair, argument order and budget the whole Result — Edges,
// Mapping, Exact and the Nodes count, which only agrees if the same tree
// was cut at the same node — is identical. One solver value serves every
// case, in an order that makes consecutive pairs shrink and grow, so
// arena state surviving from a larger pair (used, avail2, core, remain1,
// the edge-label matrix) would surface as a mismatch.
func TestSolverWalksTheSameTree(t *testing.T) {
	// Molecules up to 26 atoms: carbon is 68% of substituent atoms, so a
	// good share of them have a label class above 12.
	big := dataset.Chemical(dataset.ChemConfig{N: 72, MinVertices: 9, MaxVertices: 26, Scaffolds: 64, Seed: 23})
	var small []*graph.Graph
	for _, g := range dataset.Chemical(dataset.ChemConfig{N: 80, MinVertices: 4, MaxVertices: 8, Scaffolds: 64, Seed: 24}) {
		if g.N() <= 8 {
			small = append(small, g)
		}
	}
	small = append(small, &graph.Graph{}, graph.New(1))
	if len(small) < 30 {
		t.Fatalf("only %d graphs of <= 8 vertices generated", len(small))
	}

	type pair struct {
		a, b    *graph.Graph
		budgets []int64
	}
	var pairs []pair
	n := 0
	for i, a := range big {
		for _, b := range big[i+1:] {
			if n++; n%3 == 0 { // 852 of the 2,556 pairs keep the test quick under -race
				pairs = append(pairs, pair{a, b, []int64{1, 50, 500, 5000}})
			}
		}
	}
	for i, a := range small {
		for _, b := range small[i:] {
			pairs = append(pairs, pair{a, b, []int64{1, 50, 500, 5000, 0}})
		}
	}
	// Interleave sizes: a shuffled order puts 2-vertex pairs between
	// 26-vertex ones.
	rand.New(rand.NewSource(25)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	s := new(solver)
	wide, cases, failures := 0, 0, 0
	for _, p := range pairs {
		for _, order := range [][2]*graph.Graph{{p.a, p.b}, {p.b, p.a}} {
			a, b := order[0], order[1]
			g2 := b
			if a.N() > b.N() {
				g2 = a
			}
			if maxLabelClass(g2) > 12 {
				wide++
			}
			for _, budget := range p.budgets {
				opt := Options{MaxNodes: budget}
				got, want := s.compute(a, b, opt), refCompute(a, b, opt)
				cases++
				if reflect.DeepEqual(got, want) {
					continue
				}
				t.Errorf("pair (|V|=%d,|E|=%d) x (|V|=%d,|E|=%d), budget %d:\n got  %+v\n want %+v\n a = %v\n b = %v",
					a.N(), a.M(), b.N(), b.M(), budget, got, want, a, b)
				if failures++; failures == 5 {
					t.FailNow()
				}
			}
		}
	}
	if wide < 1000 {
		t.Errorf("only %d ordered pairs search into a label class above 12 vertices; want >= 1000", wide)
	}
	t.Logf("%d ordered pairs (%d with a label class > 12), %d pair x budget cases", 2*len(pairs), wide, cases)
}
