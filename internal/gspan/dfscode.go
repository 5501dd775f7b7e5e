// Package gspan implements the gSpan frequent subgraph mining algorithm of
// Yan and Han (ICDM 2002), the miner the paper uses to produce the
// candidate feature set F (Section 6: "The frequent feature set F is mined
// by gSpan with a minimum support 5%").
//
// gSpan enumerates connected subgraph patterns in DFS-code canonical order:
// each pattern is represented by the lexicographically minimal sequence of
// edge tuples (i, j, l_i, l_ij, l_j) produced by a depth-first traversal,
// grown only along the rightmost path, and a pattern is reported exactly
// once thanks to a minimality test on its code.
package gspan

import "repro/internal/graph"

// dfs is one edge of a DFS code: discovery indices (from, to) plus the
// vertex/edge labels. A forward edge has to == from's subtree growth
// (to > from); a backward edge closes a cycle (to < from).
type dfs struct {
	from, to                   int
	fromLabel, eLabel, toLabel graph.Label
}

// dfsCode is a sequence of dfs edges describing a connected pattern.
type dfsCode []dfs

// toGraph materializes the pattern graph described by the code.
func (c dfsCode) toGraph() *graph.Graph {
	g := &graph.Graph{}
	n := 0
	for _, d := range c {
		if d.from >= n {
			n = d.from + 1
		}
		if d.to >= n {
			n = d.to + 1
		}
	}
	labels := make([]graph.Label, n)
	for _, d := range c {
		labels[d.from] = d.fromLabel
		labels[d.to] = d.toLabel
	}
	for _, l := range labels {
		g.AddVertex(l)
	}
	for _, d := range c {
		g.MustAddEdge(d.from, d.to, d.eLabel)
	}
	return g
}

// rightmostPath returns indices into c of the edges on the rightmost path,
// ordered deepest-first (index 0 is the edge reaching the rightmost
// vertex), mirroring the reference gSpan implementation.
func (c dfsCode) rightmostPath() []int {
	var path []int
	oldFrom := -1
	for i := len(c) - 1; i >= 0; i-- {
		d := c[i]
		if d.from < d.to && (len(path) == 0 || oldFrom == d.to) {
			path = append(path, i)
			oldFrom = d.from
		}
	}
	return path
}
