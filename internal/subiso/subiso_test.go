package subiso

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// bruteContains is an independent reference: try every injective mapping
// of pattern vertices into target vertices.
func bruteContains(target, pattern *graph.Graph) bool {
	n, k := target.N(), pattern.N()
	if k > n {
		return false
	}
	assign := make([]int, k)
	used := make([]bool, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			return true
		}
		for tv := 0; tv < n; tv++ {
			if used[tv] || target.VertexLabel(tv) != pattern.VertexLabel(i) {
				continue
			}
			ok := true
			for _, h := range pattern.Neighbors(i) {
				if h.To < i {
					l, has := target.EdgeLabel(tv, assign[h.To])
					if !has || l != h.Label {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			assign[i] = tv
			used[tv] = true
			if rec(i + 1) {
				return true
			}
			used[tv] = false
		}
		return false
	}
	return rec(0)
}

func randomGraph(r *rand.Rand, n, extraEdges, labels int) *graph.Graph {
	g := &graph.Graph{}
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(r.Intn(labels)))
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(r.Intn(v), v, graph.Label(r.Intn(labels)))
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, graph.Label(r.Intn(labels)))
		}
	}
	return g
}

func TestContainsAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		target := randomGraph(r, 4+r.Intn(5), r.Intn(6), 2)
		pattern := randomGraph(r, 2+r.Intn(4), r.Intn(3), 2)
		return Contains(target, pattern) == bruteContains(target, pattern)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestContainsSelf(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(6), r.Intn(5), 3)
		return Contains(g, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestContainsSubgraphOfSelf(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(6), r.Intn(5), 3)
		// Take an induced subgraph on a random vertex subset.
		var vs []int
		for v := 0; v < g.N(); v++ {
			if r.Intn(2) == 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			vs = []int{0}
		}
		sub, _ := g.InducedSubgraph(vs)
		return Contains(g, sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFindMappingWitness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		target := randomGraph(r, 5+r.Intn(4), r.Intn(6), 2)
		pattern := randomGraph(r, 2+r.Intn(3), r.Intn(2), 2)
		m := FindMapping(target, pattern)
		if m == nil {
			return !bruteContains(target, pattern)
		}
		// Verify the mapping is a genuine witness.
		seen := map[int]bool{}
		for pv, tv := range m {
			if tv < 0 || tv >= target.N() || seen[tv] {
				return false
			}
			seen[tv] = true
			if target.VertexLabel(tv) != pattern.VertexLabel(pv) {
				return false
			}
		}
		for _, e := range pattern.Edges() {
			l, ok := target.EdgeLabel(m[e.U], m[e.V])
			if !ok || l != e.Label {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLabelMismatchFails(t *testing.T) {
	target := graph.New(2)
	target.MustAddEdge(0, 1, 5)
	pattern := &graph.Graph{}
	pattern.AddVertex(1) // label differs from target's 0
	if Contains(target, pattern) {
		t.Errorf("pattern with unseen vertex label reported contained")
	}
}

func TestEdgeLabelMismatchFails(t *testing.T) {
	target := graph.New(2)
	target.MustAddEdge(0, 1, 5)
	pattern := graph.New(2)
	pattern.MustAddEdge(0, 1, 6)
	if Contains(target, pattern) {
		t.Errorf("pattern with wrong edge label reported contained")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Pattern with two isolated labeled vertices; target must provide both.
	target := &graph.Graph{}
	target.AddVertex(1)
	target.AddVertex(2)
	pattern := &graph.Graph{}
	pattern.AddVertex(1)
	pattern.AddVertex(2)
	if !Contains(target, pattern) {
		t.Errorf("disconnected pattern should match")
	}
	pattern2 := &graph.Graph{}
	pattern2.AddVertex(1)
	pattern2.AddVertex(1)
	if Contains(target, pattern2) {
		t.Errorf("needs two label-1 vertices, target has one")
	}
}

func TestIsomorphic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := randomGraph(r, 3+r.Intn(6), r.Intn(5), 3)
		perm := r.Perm(g.N())
		inv := make([]int, g.N())
		for newID, oldID := range perm {
			inv[oldID] = newID
		}
		h := &graph.Graph{}
		lbl := make([]graph.Label, g.N())
		for old := 0; old < g.N(); old++ {
			lbl[inv[old]] = g.VertexLabel(old)
		}
		for _, l := range lbl {
			h.AddVertex(l)
		}
		for _, e := range g.Edges() {
			h.MustAddEdge(inv[e.U], inv[e.V], e.Label)
		}
		if !Isomorphic(g, h) {
			t.Fatalf("permuted copy not isomorphic (seed iter %d)", i)
		}
	}
}

func TestCountMappings(t *testing.T) {
	// Path a-b with labels (0)-(0), edge label 0; target triangle of
	// label-0 vertices: each ordered pair of adjacent vertices is a
	// mapping: 6 mappings.
	target := graph.New(3)
	target.MustAddEdge(0, 1, 0)
	target.MustAddEdge(1, 2, 0)
	target.MustAddEdge(0, 2, 0)
	pattern := graph.New(2)
	pattern.MustAddEdge(0, 1, 0)
	if got := CountMappings(target, pattern, 0); got != 6 {
		t.Errorf("CountMappings = %d, want 6", got)
	}
	if got := CountMappings(target, pattern, 4); got != 4 {
		t.Errorf("CountMappings limited = %d, want 4", got)
	}
}

// looseGraph draws a graph with no connectivity guarantee: n labeled
// vertices and up to `edges` random edges, so isolated vertices and
// several components are the norm.
func looseGraph(r *rand.Rand, n, edges, labels int) *graph.Graph {
	g := &graph.Graph{}
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(r.Intn(labels)))
	}
	for i := 0; i < edges && n > 1; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, graph.Label(r.Intn(labels)))
		}
	}
	return g
}

// checkCompiled holds one compiled pattern and one scratch to the
// property the mapper relies on: In over a scratch that has served other
// patterns and targets answers what a fresh Contains does, and both agree
// with brute force.
func checkCompiled(t *testing.T, pt *Pattern, pattern, target *graph.Graph, sc *Scratch) {
	t.Helper()
	want := bruteContains(target, pattern)
	if got := pt.In(target, sc); got != want {
		t.Fatalf("Compile(p).In(g, reused scratch) = %v, brute force %v\npattern %v\ntarget %v", got, want, pattern, target)
	}
	if got := Contains(target, pattern); got != want {
		t.Fatalf("Contains = %v, brute force %v\npattern %v\ntarget %v", got, want, pattern, target)
	}
}

// TestCompiledPatternMatchesContains: a handful of compiled patterns —
// connected, disconnected, empty, and larger than most targets — each
// tested against a run of targets of varying size through ONE scratch
// shared by all of them.
func TestCompiledPatternMatchesContains(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var sc Scratch
	for round := 0; round < 60; round++ {
		patterns := []*graph.Graph{
			{}, // the empty pattern embeds everywhere
			randomGraph(r, 2+r.Intn(4), r.Intn(3), 2), // connected
			looseGraph(r, 1+r.Intn(5), r.Intn(4), 2),  // usually disconnected
			randomGraph(r, 7+r.Intn(3), r.Intn(4), 2), // larger than the small targets
		}
		compiled := make([]*Pattern, len(patterns))
		for i, p := range patterns {
			compiled[i] = Compile(p)
		}
		for j := 0; j < 8; j++ {
			var target *graph.Graph
			switch j % 3 {
			case 0:
				target = randomGraph(r, 2+r.Intn(3), r.Intn(2), 2) // small: shrinks the scratch's view
			case 1:
				target = randomGraph(r, 6+r.Intn(5), r.Intn(8), 2)
			default:
				target = looseGraph(r, r.Intn(9), r.Intn(8), 2) // may be empty
			}
			for i, p := range patterns {
				checkCompiled(t, compiled[i], p, target, &sc)
			}
		}
	}
}

// TestCompiledPatternConcurrent: a Pattern is shared (every query and
// every Add maps through the same compiled features); the scratch is
// per caller. Meaningful under -race.
func TestCompiledPatternConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pattern := randomGraph(r, 4, 1, 2)
	pt := Compile(pattern)
	targets := make([]*graph.Graph, 32)
	want := make([]bool, len(targets))
	for i := range targets {
		targets[i] = randomGraph(r, 3+r.Intn(8), r.Intn(6), 2)
		want[i] = bruteContains(targets[i], pattern)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc Scratch
			for rep := 0; rep < 20; rep++ {
				for i, g := range targets {
					if got := pt.In(g, &sc); got != want[i] {
						t.Errorf("target %d: In = %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// graphFromBytes decodes a small graph from fuzz input: a vertex count,
// that many labels, then (u, v, label) triples; bytes that would make a
// loop or a parallel edge are skipped. Nothing forces connectivity.
func graphFromBytes(data []byte, maxN int) (*graph.Graph, []byte) {
	g := &graph.Graph{}
	if len(data) == 0 {
		return g, data
	}
	n := int(data[0]) % (maxN + 1)
	data = data[1:]
	for i := 0; i < n; i++ {
		var l byte
		if len(data) > 0 {
			l, data = data[0], data[1:]
		}
		g.AddVertex(graph.Label(l % 3))
	}
	edges := 0
	if len(data) > 0 {
		edges, data = int(data[0])%12, data[1:]
	}
	for ; edges > 0 && len(data) >= 3 && n > 1; edges-- {
		u, v, l := int(data[0])%n, int(data[1])%n, data[2]
		data = data[3:]
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, graph.Label(l%2))
		}
	}
	return g, data
}

// FuzzCompiledPattern: for any pattern and any two targets decoded from
// the input, the compiled pattern over one reused scratch agrees with
// Contains and with brute force — in both target orders, so the scratch
// is seen growing and shrinking.
func FuzzCompiledPattern(f *testing.F) {
	f.Add([]byte{})                                                    // empty pattern, empty targets
	f.Add([]byte{0, 3, 0, 0, 0, 2, 0, 1, 0, 1, 2, 0})                  // empty pattern in a path
	f.Add([]byte{2, 1, 2, 0, 2, 1, 2, 0, 1, 0, 0})                     // two isolated vertices: disconnected
	f.Add([]byte{5, 0, 0, 0, 0, 0, 4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 2})   // pattern larger than a 2-vertex target
	f.Add([]byte{3, 0, 0, 0, 3, 0, 1, 0, 1, 2, 0, 0, 2, 0, 6, 0, 0, 0, // triangle in a 6-ring: absent
		0, 0, 0, 6, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pattern, rest := graphFromBytes(data, 5)
		a, rest := graphFromBytes(rest, 8)
		b, _ := graphFromBytes(rest, 8)
		pt := Compile(pattern)
		var sc Scratch
		for _, target := range []*graph.Graph{a, b, a} {
			checkCompiled(t, pt, pattern, target, &sc)
		}
	})
}
