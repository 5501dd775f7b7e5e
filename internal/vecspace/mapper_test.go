package vecspace

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/subiso"
)

// countKey is one thing the precheck counts, keyed the way the tests
// count it: a vertex label (edge false, label a), or an edge type (edge
// true, endpoint labels a <= b, edge label l).
type countKey struct {
	edge    bool
	a, b, l graph.Label
}

// labelCounts counts g's vertex labels and, from g.Edges(), its edge
// types — independently of the mapper's own slot tables.
func labelCounts(g *graph.Graph) map[countKey]int {
	c := map[countKey]int{}
	for v := 0; v < g.N(); v++ {
		c[countKey{a: g.VertexLabel(v)}]++
	}
	for _, e := range g.Edges() {
		a, b := g.VertexLabel(e.U), g.VertexLabel(e.V)
		c[countKey{edge: true, a: min(a, b), b: max(a, b), l: e.Label}]++
	}
	return c
}

// covers reports whether have holds at least need's count of every key.
func covers(have, need map[countKey]int) bool {
	for k, n := range need {
		if have[k] < n {
			return false
		}
	}
	return true
}

// checkMapper holds m to two references it shares no code with: bit r of
// Map(g) is subiso.Contains(g, f_r), and the precheck admits f_r exactly
// when g's counts cover f_r's. The second half catches a precheck that is
// merely too weak (an edge counted twice, a need skipped), which the
// first cannot see because VF2 still answers correctly behind it.
func checkMapper(t *testing.T, m *Mapper, g *graph.Graph) {
	t.Helper()
	v := m.Map(g)
	if v.Len() != m.Dim() {
		t.Fatalf("Map gives %d bits over %d dimensions", v.Len(), m.Dim())
	}
	counts := make([]int32, len(m.etypes)+len(m.vlabels))
	m.count(g, counts)
	have := labelCounts(g)
	for r, f := range m.Features() {
		if got, want := v.Get(r), subiso.Contains(g, f); got != want {
			t.Fatalf("bit %d = %v, Contains = %v\nfeature:\n%starget:\n%s", r, got, want, f, g)
		}
		if got, want := m.admits(counts, r), covers(have, labelCounts(f)); got != want {
			t.Fatalf("precheck admits feature %d = %v, its counts say %v\nfeature:\n%starget:\n%s", r, got, want, f, g)
		}
	}
}

// mk builds a graph from vertex labels and (u, v, edge label) triples.
func mk(labels []graph.Label, edges ...[3]int) *graph.Graph {
	g := &graph.Graph{}
	for _, l := range labels {
		g.AddVertex(l)
	}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1], graph.Label(e[2]))
	}
	return g
}

// TestMapperPrecheckTable pins the shapes a label-count precheck gets
// wrong: negative labels, target labels no feature uses, edge types whose
// endpoints share a label (added in either orientation), features with an
// isolated vertex or two components, the empty target, and p = 0.
func TestMapperPrecheckTable(t *testing.T) {
	type L = []graph.Label
	cases := []struct {
		name     string
		features []*graph.Graph
		targets  []*graph.Graph
	}{
		{
			name: "negative labels",
			features: []*graph.Graph{
				mk(L{-3, -1}, [3]int{0, 1, -2}),
				mk(L{-3, -3, -1}, [3]int{0, 1, -2}, [3]int{1, 2, -2}),
				mk(L{-1, -3}, [3]int{0, 1, 4}),
			},
			targets: []*graph.Graph{
				mk(L{-1, -3, -3}, [3]int{0, 1, -2}, [3]int{1, 2, -2}),
				mk(L{-1, -3, -3}, [3]int{0, 1, -2}, [3]int{0, 2, -2}),
				mk(L{-3, -1}, [3]int{0, 1, 2}),
				mk(L{-1, -1, -3}, [3]int{0, 1, -2}, [3]int{1, 2, 4}),
			},
		},
		{
			name: "target labels no feature uses",
			features: []*graph.Graph{
				mk(L{0, 1}, [3]int{0, 1, 0}),
				mk(L{1, 0, 1}, [3]int{0, 1, 0}, [3]int{1, 2, 0}),
			},
			targets: []*graph.Graph{
				mk(L{7, 8, 9}, [3]int{0, 1, 0}, [3]int{1, 2, 5}),
				mk(L{1, 7, 0, 1}, [3]int{0, 1, 3}, [3]int{1, 2, 3}, [3]int{2, 3, 0}, [3]int{0, 2, 0}),
				mk(L{0, 1, 0}, [3]int{0, 1, 6}, [3]int{1, 2, 0}),
			},
		},
		{
			name: "equal endpoint labels, both orientations",
			features: []*graph.Graph{
				mk(L{2, 2}, [3]int{0, 1, 1}),
				mk(L{2, 2}, [3]int{1, 0, 1}),
				mk(L{2, 2, 2}, [3]int{2, 1, 1}, [3]int{0, 1, 1}),
				mk(L{2, 2, 2}, [3]int{0, 1, 1}, [3]int{1, 2, 1}, [3]int{2, 0, 1}),
				mk(L{3, 2}, [3]int{1, 0, 1}),
			},
			targets: []*graph.Graph{
				mk(L{2, 2, 2}, [3]int{2, 1, 1}, [3]int{1, 0, 1}),
				mk(L{2, 2, 2, 2}, [3]int{0, 1, 1}, [3]int{2, 3, 1}, [3]int{3, 1, 0}),
				mk(L{2, 2}, [3]int{1, 0, 0}),
				mk(L{2, 3, 2}, [3]int{0, 1, 1}, [3]int{2, 1, 1}),
				mk(L{2, 2, 2}, [3]int{0, 1, 1}, [3]int{1, 2, 1}, [3]int{0, 2, 1}),
			},
		},
		{
			name: "isolated vertices and two components",
			features: []*graph.Graph{
				mk(L{0, 1, 5}, [3]int{0, 1, 0}),
				mk(L{0, 0, 1, 1}, [3]int{0, 1, 0}, [3]int{2, 3, 0}),
				mk(L{4}),
				mk(L{4, 4}),
			},
			targets: []*graph.Graph{
				mk(L{0, 1}, [3]int{0, 1, 0}),
				mk(L{5, 0, 1}, [3]int{1, 2, 0}),
				mk(L{0, 0, 1, 1, 5}, [3]int{0, 1, 0}, [3]int{2, 3, 0}, [3]int{1, 2, 0}),
				mk(L{0, 0, 1}, [3]int{0, 1, 0}, [3]int{1, 2, 0}),
				mk(L{4, 0, 4}, [3]int{0, 1, 2}),
				mk(L{4}),
			},
		},
		{
			name: "empty target",
			features: []*graph.Graph{
				{},
				mk(L{0}),
				mk(L{0, 1}, [3]int{0, 1, 0}),
			},
			targets: []*graph.Graph{{}, mk(L{0})},
		},
		{
			name:    "p = 0",
			targets: []*graph.Graph{{}, mk(L{0, 1}, [3]int{0, 1, 0})},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMapper(tc.features)
			for _, g := range tc.targets {
				checkMapper(t, m, g)
			}
		})
	}
}

// graphFrom decodes a small graph from fuzz bytes: a vertex count up to
// maxN, that many vertex labels in -2..2, an edge count, then (u, v,
// label) triples with edge labels in -1..1; a triple that would make a
// loop or a parallel edge is skipped. Exhausted input reads as zeros.
func graphFrom(data []byte, maxN int) (*graph.Graph, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := &graph.Graph{}
	n := next() % (maxN + 1)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(next()%5 - 2))
	}
	for e := next() % 12; e > 0 && n > 1; e-- {
		u, v, l := next()%n, next()%n, next()%3-1
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, graph.Label(l))
		}
	}
	return g, data
}

// FuzzMapperMatchesContains: a mapper over up to six random features of
// up to five vertices, and a target of up to nine, decoded from the input.
// Every bit of Map must equal subiso.Contains and the precheck must admit
// exactly the features the target's counts cover (checkMapper).
func FuzzMapperMatchesContains(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 2, 2, 1, 0, 1, 1, 3, 2, 2, 2, 2, 0, 1, 1, 1, 2, 1})
	f.Add([]byte{2, 3, 0, 1, 4, 0, 2, 3, 0, 0, 3, 0, 1, 0, 5, 0, 1, 4, 3, 3, 4, 0, 1, 2, 1, 2, 0, 2, 3, 2})
	f.Add([]byte{3, 3, 2, 2, 2, 3, 0, 1, 1, 1, 2, 1, 2, 0, 1, 1, 3, 0, 1, 2, 1, 0, 3, 2, 2, 2, 2, 1, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var features []*graph.Graph
		k := 0
		if len(data) > 0 {
			k, data = int(data[0])%7, data[1:]
		}
		for i := 0; i < k; i++ {
			var g *graph.Graph
			g, data = graphFrom(data, 5)
			features = append(features, g)
		}
		target, _ := graphFrom(data, 9)
		checkMapper(t, NewMapper(features), target)
	})
}
