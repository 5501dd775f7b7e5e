// Package subiso implements subgraph isomorphism testing for undirected
// labeled graphs in the style of the VF2 algorithm of Cordella et al.
// (IEEE TPAMI 2004), the matcher the paper uses for feature matching
// (Section 6, Exp-4).
//
// The semantics are (non-induced) subgraph isomorphism: pattern p is a
// subgraph of target g if there is an injective vertex mapping that
// preserves vertex labels and maps every pattern edge to a target edge with
// the same label. Extra target edges between mapped vertices are allowed,
// matching the containment relation f ⊆ g used for feature vectors.
package subiso

import (
	"sort"

	"repro/internal/graph"
)

// Contains reports whether pattern is subgraph-isomorphic to target. A
// caller testing one pattern against many targets should Compile it once
// and call In — this is that path with nothing kept.
func Contains(target, pattern *graph.Graph) bool {
	return Compile(pattern).In(target, &Scratch{})
}

// FindMapping returns one injective mapping pattern→target witnessing
// subgraph isomorphism, or nil if none exists. mapping[i] is the target
// vertex matched to pattern vertex i.
func FindMapping(target, pattern *graph.Graph) []int {
	m := Compile(pattern).matcher(target, &Scratch{})
	m.keep = true
	if !m.match(0) {
		return nil
	}
	return m.snapshot
}

// CountMappings returns the number of distinct injective mappings of
// pattern into target, up to the given limit (0 means unlimited). It is
// used by tests comparing against brute force and by the occurrence-count
// vector ablation.
func CountMappings(target, pattern *graph.Graph, limit int) int {
	m := Compile(pattern).matcher(target, &Scratch{})
	m.countLimit = limit
	m.counting = true
	m.match(0)
	return m.found
}

// Pattern is a pattern graph compiled for repeated matching: the match
// order and anchors depend on the pattern alone, so a feature tested
// against every query and every added graph computes them once. A Pattern
// is immutable and safe for concurrent use; the per-search state lives in
// the Scratch each caller brings.
type Pattern struct {
	p         *graph.Graph
	order     []int // pattern vertices in match order
	anchor    []int // anchor[i]: index into order of an already-matched neighbour of order[i], or -1
	anchorLbl []graph.Label
}

// Scratch is the mutable state of one search — the partial mapping and
// the used-target-vertex set — reusable across patterns and targets of
// any size. The zero value is ready; a Scratch serves one search at a
// time.
type Scratch struct {
	core []int  // pattern vertex -> target vertex (-1 unmatched)
	used []bool // target vertex used
}

// Compile computes pattern's match order: one that keeps the partial
// pattern connected where possible (BFS from the highest-degree vertex
// of each component), which lets each new vertex be constrained by an
// already matched neighbour (its anchor).
func Compile(pattern *graph.Graph) *Pattern {
	n := pattern.N()
	pt := &Pattern{
		p:         pattern,
		order:     make([]int, 0, n),
		anchor:    make([]int, n),
		anchorLbl: make([]graph.Label, n),
	}
	placed := make([]bool, n)
	posInOrder := make([]int, n)

	for len(pt.order) < n {
		// Pick the unplaced vertex with the highest degree as the next root.
		root, best := -1, -1
		for v := 0; v < n; v++ {
			if !placed[v] && pattern.Degree(v) > best {
				root, best = v, pattern.Degree(v)
			}
		}
		pt.anchor[len(pt.order)] = -1
		posInOrder[root] = len(pt.order)
		pt.order = append(pt.order, root)
		placed[root] = true
		queue := []int{root}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			// Sort neighbours by descending degree for tighter pruning.
			hs := append([]graph.Half(nil), pattern.Neighbors(v)...)
			sort.Slice(hs, func(i, j int) bool {
				return pattern.Degree(hs[i].To) > pattern.Degree(hs[j].To)
			})
			for _, h := range hs {
				if placed[h.To] {
					continue
				}
				idx := len(pt.order)
				pt.anchor[idx] = posInOrder[v]
				pt.anchorLbl[idx] = h.Label
				posInOrder[h.To] = idx
				pt.order = append(pt.order, h.To)
				placed[h.To] = true
				queue = append(queue, h.To)
			}
		}
	}
	return pt
}

// In reports whether the pattern is subgraph-isomorphic to target, using
// sc for the search state. A pattern with more vertices or edges than the
// target cannot embed (the mapping is injective on both) and is rejected
// without a search.
func (pt *Pattern) In(target *graph.Graph, sc *Scratch) bool {
	if pt.p.N() > target.N() || pt.p.M() > target.M() {
		return false
	}
	m := pt.matcher(target, sc)
	return m.match(0)
}

// matcher carries the VF2 search state. Pattern vertices are matched in
// the compiled order; candidate target vertices are filtered by label,
// degree, and adjacency consistency with already-mapped vertices.
type matcher struct {
	*Pattern
	t          *graph.Graph
	core       []int
	used       []bool
	keep       bool // copy core into snapshot at the first full match
	counting   bool
	countLimit int
	found      int
	snapshot   []int
}

// matcher readies sc for a search of target: core all unmatched, used all
// free, both regrown (doubling, so a run of growing patterns regrows
// O(log) times) only when this pattern or target is the largest sc has
// seen.
func (pt *Pattern) matcher(target *graph.Graph, sc *Scratch) matcher {
	pn, tn := pt.p.N(), target.N()
	if cap(sc.core) < pn {
		sc.core = make([]int, max(pn, 2*cap(sc.core)))
	}
	if cap(sc.used) < tn {
		sc.used = make([]bool, max(tn, 2*cap(sc.used)))
	}
	core, used := sc.core[:pn], sc.used[:tn]
	for i := range core {
		core[i] = -1
	}
	clear(used)
	return matcher{Pattern: pt, t: target, core: core, used: used}
}

// match extends the partial mapping at position depth in the order.
// It returns true when a full mapping is found (and counting is off).
func (m *matcher) match(depth int) bool {
	if depth == len(m.order) {
		m.found++
		if m.counting {
			return m.countLimit > 0 && m.found >= m.countLimit
		}
		if m.keep {
			m.snapshot = append([]int(nil), m.core...)
		}
		return true
	}
	pv := m.order[depth]
	if a := m.anchor[depth]; a >= 0 {
		// Candidates are neighbours of the matched anchor with the right
		// edge label.
		tAnchor := m.core[m.order[a]]
		for _, h := range m.t.Neighbors(tAnchor) {
			if h.Label != m.anchorLbl[depth] || m.used[h.To] {
				continue
			}
			if m.feasible(pv, h.To) {
				if m.assign(pv, h.To, depth) {
					return true
				}
			}
		}
		return false
	}
	// Root of a new component: try every target vertex.
	for tv := 0; tv < m.t.N(); tv++ {
		if m.used[tv] {
			continue
		}
		if m.feasible(pv, tv) {
			if m.assign(pv, tv, depth) {
				return true
			}
		}
	}
	return false
}

func (m *matcher) assign(pv, tv, depth int) bool {
	m.core[pv] = tv
	m.used[tv] = true
	done := m.match(depth + 1)
	m.core[pv] = -1
	m.used[tv] = false
	return done
}

// feasible checks label, degree, and consistency with every already-mapped
// pattern neighbour of pv.
func (m *matcher) feasible(pv, tv int) bool {
	if m.p.VertexLabel(pv) != m.t.VertexLabel(tv) {
		return false
	}
	if m.p.Degree(pv) > m.t.Degree(tv) {
		return false
	}
	for _, h := range m.p.Neighbors(pv) {
		mapped := m.core[h.To]
		if mapped < 0 {
			continue
		}
		l, ok := m.t.EdgeLabel(tv, mapped)
		if !ok || l != h.Label {
			return false
		}
	}
	return true
}

// Isomorphic reports whether a and b are isomorphic labeled graphs.
// It requires equal sizes plus containment both ways being unnecessary:
// with equal vertex and edge counts, a single non-induced embedding of a
// into b is automatically edge-surjective, hence an isomorphism.
func Isomorphic(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	if a.Signature() != b.Signature() {
		return false
	}
	return Contains(b, a)
}
