// Package verify provides feasibility checks, exact solvers, and the
// proof-accounting machinery needed to evaluate the paper's algorithms:
// is a set an edge dominating set / matching / star forest, what is the
// exact optimum on small instances, and does the Theorem 5 cost/weight
// analysis hold on a concrete run.
package verify

import "eds/internal/graph"

// IsEdgeDominatingSet reports whether every edge of g is in s or adjacent
// to an edge of s.
func IsEdgeDominatingSet(g *graph.Graph, s *graph.EdgeSet) bool {
	covered := graph.CoveredNodes(g, s)
	for idx, e := range g.Edges() {
		if !s.Has(idx) && !covered[e.A.Node] && !covered[e.B.Node] {
			return false
		}
	}
	return true
}

// IsEdgeCover reports whether s covers every node of g. Isolated nodes
// make an edge cover impossible.
func IsEdgeCover(g *graph.Graph, s *graph.EdgeSet) bool {
	covered := graph.CoveredNodes(g, s)
	for v := 0; v < g.N(); v++ {
		if !covered[v] {
			return false
		}
	}
	return true
}

// IsMatching reports whether no two edges of s share a node.
func IsMatching(g *graph.Graph, s *graph.EdgeSet) bool {
	return IsKMatching(g, s, 1)
}

// IsKMatching reports whether every node is incident to at most k edges
// of s (Section 2: the subgraph induced by a k-matching has maximum
// degree at most k).
func IsKMatching(g *graph.Graph, s *graph.EdgeSet, k int) bool {
	for _, d := range graph.DegreeIn(g, s) {
		if d > k {
			return false
		}
	}
	return true
}

// IsMaximalMatching reports whether s is a matching that cannot be
// extended by any edge of g.
func IsMaximalMatching(g *graph.Graph, s *graph.EdgeSet) bool {
	if !IsMatching(g, s) {
		return false
	}
	covered := graph.CoveredNodes(g, s)
	for idx, e := range g.Edges() {
		if !s.Has(idx) && !covered[e.A.Node] && !covered[e.B.Node] {
			return false
		}
	}
	return true
}

// IsForest reports whether the subgraph induced by s is acyclic
// (union-find over the selected edges; any loop is a cycle).
func IsForest(g *graph.Graph, s *graph.EdgeSet) bool {
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	acyclic := true
	s.ForEach(func(idx int) bool {
		e := g.Edge(idx)
		ru, rv := find(e.A.Node), find(e.B.Node)
		if ru == rv {
			acyclic = false
			return false
		}
		parent[ru] = rv
		return true
	})
	return acyclic
}

// IsStarForest reports whether every connected component of the subgraph
// induced by s is a star: equivalently, s is loop-free and every edge of
// s has at least one endpoint with s-degree exactly 1 (no path of length
// three and no cycle survives that condition).
func IsStarForest(g *graph.Graph, s *graph.EdgeSet) bool {
	deg := graph.DegreeIn(g, s)
	ok := true
	s.ForEach(func(idx int) bool {
		e := g.Edge(idx)
		if e.IsLoop() || (deg[e.A.Node] != 1 && deg[e.B.Node] != 1) {
			ok = false
			return false
		}
		return true
	})
	return ok
}
