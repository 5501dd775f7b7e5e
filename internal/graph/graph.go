// Package graph provides the undirected labeled graph type used throughout
// the repository: the graphs stored in a graph database, the frequent
// subgraphs mined from it, and the query graphs matched against it.
//
// Graphs are simple (no self-loops, no parallel edges), undirected, and
// carry integer labels on both vertices and edges, matching the model in
// Section 2 of the paper (g = (V, E, l) over a label alphabet Σ).
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is a vertex or edge label drawn from the alphabet Σ.
// Labels are small non-negative integers; datasets map their domain
// alphabets (e.g. element symbols, bond orders) onto this type.
type Label int32

// Edge is an undirected labeled edge between vertices U and V.
// Invariant: U < V for edges stored in a Graph (normalized form).
type Edge struct {
	U, V  int
	Label Label
}

// normalize returns e with endpoints ordered U < V.
func (e Edge) normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Graph is an undirected labeled simple graph. The zero value is an empty
// graph ready to use. Vertices are dense integers 0..N-1.
//
// A fully built graph is safe for any number of concurrent readers —
// graphdim snapshots and parallel shard saves share *Graph values
// freely. Construction (AddVertex, AddEdge) is not synchronized; build
// on one goroutine, then share.
type Graph struct {
	labels []Label    // labels[v] is the label of vertex v
	edges  []Edge     // normalized (U<V), sorted lexicographically
	adj    [][]Half   // adj[v] lists incident half-edges
	sortMu sync.Mutex // guards the lazy sort in Edges
	sorted bool       // edges slice is sorted; written under sortMu
}

// Half is one endpoint's view of an incident edge: the neighbour vertex
// and the edge label.
type Half struct {
	To    int
	Label Label
}

// New returns an empty graph with n unlabeled (label 0) vertices.
func New(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.AddVertex(0)
	}
	return g
}

// AddVertex appends a vertex with the given label and returns its id.
func (g *Graph) AddVertex(l Label) int {
	g.labels = append(g.labels, l)
	g.adj = append(g.adj, nil)
	return len(g.labels) - 1
}

// AddEdge inserts an undirected edge {u,v} with label l. It reports an
// error for self-loops, out-of-range endpoints, or duplicate edges.
func (g *Graph) AddEdge(u, v int, l Label) error {
	if err := checkEndpoints(u, v, len(g.labels)); err != nil {
		return err
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.edges = append(g.edges, Edge{U: u, V: v, Label: l}.normalize())
	g.adj[u] = append(g.adj[u], Half{To: v, Label: l})
	g.adj[v] = append(g.adj[v], Half{To: u, Label: l})
	g.sorted = false
	return nil
}

// MustAddEdge is AddEdge that panics on error; for tests and generators
// that construct graphs from known-valid data.
func (g *Graph) MustAddEdge(u, v int, l Label) {
	if err := g.AddEdge(u, v, l); err != nil {
		panic(err)
	}
}

// N returns the number of vertices |V(g)|.
func (g *Graph) N() int { return len(g.labels) }

// M returns the number of edges |E(g)|.
func (g *Graph) M() int { return len(g.edges) }

// VertexLabel returns the label of vertex v.
func (g *Graph) VertexLabel(v int) Label { return g.labels[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the incident half-edges of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []Half { return g.adj[v] }

// checkEndpoints refuses a self-loop or an endpoint outside [0,n).
func checkEndpoints(u, v, n int) error {
	switch {
	case u == v:
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	case u < 0 || u >= n:
		return fmt.Errorf("graph: vertex %d out of range [0,%d)", u, n)
	case v < 0 || v >= n:
		return fmt.Errorf("graph: vertex %d out of range [0,%d)", v, n)
	}
	return nil
}

// HasEdge reports whether an edge {u,v} exists (any label).
func (g *Graph) HasEdge(u, v int) bool {
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, h := range g.adj[a] {
		if h.To == b {
			return true
		}
	}
	return false
}

// EdgeLabel returns the label of edge {u,v} and whether it exists.
func (g *Graph) EdgeLabel(u, v int) (Label, bool) {
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, h := range g.adj[a] {
		if h.To == b {
			return h.Label, true
		}
	}
	return 0, false
}

// Edges returns the normalized edge list sorted lexicographically by
// (U, V, Label). The returned slice is owned by the graph. The sort is
// lazy; the mutex makes the first call safe against concurrent readers
// (e.g. two shards of a collection encoding their shared feature graphs
// in parallel) — once sorted, the slice is never written again.
func (g *Graph) Edges() []Edge {
	g.sortMu.Lock()
	if !g.sorted {
		sort.Slice(g.edges, func(i, j int) bool {
			a, b := g.edges[i], g.edges[j]
			if a.U != b.U {
				return a.U < b.U
			}
			if a.V != b.V {
				return a.V < b.V
			}
			return a.Label < b.Label
		})
		g.sorted = true
	}
	g.sortMu.Unlock()
	return g.edges
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	// Copy via Edges() so a clone taken while another goroutine triggers
	// the lazy sort cannot observe a half-sorted slice.
	c := &Graph{
		labels: append([]Label(nil), g.labels...),
		edges:  append([]Edge(nil), g.Edges()...),
		adj:    make([][]Half, len(g.adj)),
		sorted: true,
	}
	for v, hs := range g.adj {
		c.adj[v] = append([]Half(nil), hs...)
	}
	return c
}

// Connected reports whether g is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				stack = append(stack, h.To)
			}
		}
	}
	return count == n
}

// Components returns the vertex sets of the connected components of g,
// each sorted ascending, ordered by smallest member.
func (g *Graph) Components() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, h := range g.adj[v] {
				if !seen[h.To] {
					seen[h.To] = true
					stack = append(stack, h.To)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// InducedSubgraph returns the subgraph induced by the given vertex set
// together with the mapping old→new vertex ids. Vertices keep their labels;
// all edges with both endpoints in the set are retained.
func (g *Graph) InducedSubgraph(vs []int) (*Graph, map[int]int) {
	remap := make(map[int]int, len(vs))
	sub := &Graph{}
	for _, v := range vs {
		remap[v] = sub.AddVertex(g.labels[v])
	}
	for _, e := range g.Edges() {
		nu, okU := remap[e.U]
		nv, okV := remap[e.V]
		if okU && okV {
			sub.MustAddEdge(nu, nv, e.Label)
		}
	}
	return sub, remap
}

// LabelHistogram returns counts of vertex labels and edge labels. Useful
// as a cheap pre-filter before isomorphism checks.
func (g *Graph) LabelHistogram() (vertex map[Label]int, edge map[Label]int) {
	vertex = make(map[Label]int)
	edge = make(map[Label]int)
	for _, l := range g.labels {
		vertex[l]++
	}
	for _, e := range g.Edges() {
		edge[e.Label]++
	}
	return vertex, edge
}

// Signature returns a cheap string invariant under isomorphism: sorted
// vertex label counts, sorted edge (label, endpoint-labels) triples and
// sorted degree sequence. Two isomorphic graphs always share a signature;
// the converse is not guaranteed.
func (g *Graph) Signature() string {
	var sb strings.Builder
	vl := append([]Label(nil), g.labels...)
	sort.Slice(vl, func(i, j int) bool { return vl[i] < vl[j] })
	fmt.Fprintf(&sb, "V%v", vl)
	type et struct{ a, b, l Label }
	edges := g.Edges()
	ets := make([]et, 0, len(edges))
	for _, e := range edges {
		a, b := g.labels[e.U], g.labels[e.V]
		if a > b {
			a, b = b, a
		}
		ets = append(ets, et{a, b, e.Label})
	}
	sort.Slice(ets, func(i, j int) bool {
		if ets[i].a != ets[j].a {
			return ets[i].a < ets[j].a
		}
		if ets[i].b != ets[j].b {
			return ets[i].b < ets[j].b
		}
		return ets[i].l < ets[j].l
	})
	fmt.Fprintf(&sb, "E%v", ets)
	deg := make([]int, g.N())
	for v := range deg {
		deg[v] = g.Degree(v)
	}
	sort.Ints(deg)
	fmt.Fprintf(&sb, "D%v", deg)
	return sb.String()
}

// String renders the graph in the compact text format parsed by Parse.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "t # %d %d\n", g.N(), g.M())
	for v, l := range g.labels {
		fmt.Fprintf(&sb, "v %d %d\n", v, l)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "e %d %d %d\n", e.U, e.V, e.Label)
	}
	return sb.String()
}
