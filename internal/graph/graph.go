// Package graph implements port-numbered graphs, the network model of
// Suomela's "Distributed Algorithms for Edge Dominating Sets" (PODC 2010),
// Section 2.1.
//
// A port-numbered graph is a set of nodes V, a degree function d, and an
// involution p on the set of ports {(v, i) : v ∈ V, 1 ≤ i ≤ d(v)}. The
// involution routes messages: what node v sends to its port i is received
// by node u from port j whenever p(v, i) = (u, j).
//
// The package supports multigraphs: parallel edges, undirected loops
// (p(v, i) = (v, j) with i ≠ j), and directed loops (fixed points
// p(v, i) = (v, i)). Simple graphs are a validated special case. Covering
// maps in the lower-bound constructions target multigraphs, so the whole
// stack runs on them unchanged.
package graph

import (
	"fmt"
	"slices"
)

// Port identifies one port of one node. Node is the 0-based node index and
// Num is the 1-based port number, following the paper's convention that a
// node of degree d has ports 1, 2, ..., d.
type Port struct {
	Node int
	Num  int
}

// Less orders ports lexicographically by (Node, Num).
func (p Port) Less(q Port) bool {
	if p.Node != q.Node {
		return p.Node < q.Node
	}
	return p.Num < q.Num
}

// String formats the port as "(v, i)".
func (p Port) String() string {
	return fmt.Sprintf("(%d,%d)", p.Node, p.Num)
}

// Edge is one edge of a port-numbered graph, identified by the pair of
// ports it connects. A is the canonically smaller port. For a directed
// loop (a fixed point of the involution) A == B; for an undirected loop
// A.Node == B.Node with A.Num < B.Num.
type Edge struct {
	A, B Port
}

// U returns the node index of endpoint A.
func (e Edge) U() int { return e.A.Node }

// V returns the node index of endpoint B.
func (e Edge) V() int { return e.B.Node }

// IsLoop reports whether both endpoints are the same node.
func (e Edge) IsLoop() bool { return e.A.Node == e.B.Node }

// IsDirectedLoop reports whether the edge is a fixed point of the
// involution (the paper's directed loop).
func (e Edge) IsDirectedLoop() bool { return e.A == e.B }

// Other returns the endpoint opposite to node v. It panics if v is not an
// endpoint. For loops it returns v itself.
func (e Edge) Other(v int) int {
	switch v {
	case e.A.Node:
		return e.B.Node
	case e.B.Node:
		return e.A.Node
	default:
		panic(fmt.Sprintf("graph: node %d is not an endpoint of %v", v, e))
	}
}

// Covers reports whether the edge covers node v (v is an endpoint).
func (e Edge) Covers(v int) bool { return e.A.Node == v || e.B.Node == v }

// String formats the edge as "{u,v}" with its port pair.
func (e Edge) String() string {
	return fmt.Sprintf("{%d,%d}[%d:%d]", e.A.Node, e.B.Node, e.A.Num, e.B.Num)
}

// Graph is an immutable port-numbered graph. Construct one with a Builder,
// with ReadGraph, or with a generator from internal/gen. The zero value is
// the empty graph.
//
// The involution is stored flat, as the paper models it: one table over
// the set of all ports. Ports are numbered globally in node order (see
// routing.go), so the ports of node v are the global indices
// [off[v], off[v+1]), and every per-port array below is indexed by that
// global number. None of the arrays holds a pointer, so a graph is a
// handful of heap objects whatever its size, and the garbage collector
// never scans their contents.
type Graph struct {
	off    []int32 // off[v] = global index of port (v, 1); len N()+1, nil for the zero value
	ports  []Port  // ports[off[v]+i-1] = p(v, i)
	route  []int32 // route[j] = global index of the partner of port j
	edgeAt []int32 // edgeAt[j] = index into edges of the edge at port j
	edges  []Edge  // canonical edge list, sorted by Edge.A
}

// N returns the number of nodes.
func (g *Graph) N() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// M returns the number of edges (loops count once, a directed loop is one
// edge, parallel edges count separately).
func (g *Graph) M() int { return len(g.edges) }

// portsOf returns the involution restricted to node v's ports:
// portsOf(v)[i-1] = p(v, i).
func (g *Graph) portsOf(v int) []Port { return g.ports[g.off[v]:g.off[v+1]] }

// Deg returns the degree of node v, i.e. its number of ports. A directed
// loop contributes 1 to the degree, an undirected loop contributes 2.
func (g *Graph) Deg(v int) int { return int(g.off[v+1] - g.off[v]) }

// P evaluates the involution: P(v, i) is the port connected to port i of
// node v. Port numbers are 1-based.
func (g *Graph) P(v, i int) Port { return g.portsOf(v)[i-1] }

// EdgeAt returns the index (into Edges) of the edge attached to port i of
// node v.
func (g *Graph) EdgeAt(v, i int) int { return int(g.edgeAt[g.off[v]:g.off[v+1]][i-1]) }

// Edge returns the edge with the given index.
func (g *Graph) Edge(idx int) Edge { return g.edges[idx] }

// Edges returns the canonical edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// MaxDegree returns the maximum node degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		maxDeg = max(maxDeg, g.Deg(v))
	}
	return maxDeg
}

// Regular reports whether all nodes have the same degree and returns that
// degree. The empty graph is vacuously 0-regular.
func (g *Graph) Regular() (d int, ok bool) {
	if g.N() == 0 {
		return 0, true
	}
	d = g.Deg(0)
	for v := 1; v < g.N(); v++ {
		if g.Deg(v) != d {
			return 0, false
		}
	}
	return d, true
}

// IsSimple reports whether the graph has no loops and no parallel edges.
func (g *Graph) IsSimple() bool {
	seen := make(map[[2]int]bool, len(g.edges))
	for _, e := range g.edges {
		if e.IsLoop() {
			return false
		}
		key := [2]int{e.A.Node, e.B.Node}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seen[key] {
			return false
		}
		seen[key] = true
	}
	return true
}

// Neighbour returns the node at the other end of port i of node v.
func (g *Graph) Neighbour(v, i int) int { return g.P(v, i).Node }

// Neighbours returns the multiset of neighbours of v in port order.
// The result is freshly allocated.
func (g *Graph) Neighbours(v int) []int {
	ps := g.portsOf(v)
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.Node
	}
	return out
}

// HasEdgeBetween reports whether at least one edge joins u and v.
func (g *Graph) HasEdgeBetween(u, v int) bool { return g.PortBetween(u, v) != 0 }

// PortBetween returns v's port number of some edge {v, u}, or 0 if none.
func (g *Graph) PortBetween(v, u int) int {
	for i, p := range g.portsOf(v) {
		if p.Node == u {
			return i + 1
		}
	}
	return 0
}

// IncidentEdges returns the indices of all edges incident to v, in port
// order. Loops appear once per incident port pair for undirected loops
// (i.e. once, deduplicated) and once for directed loops.
func (g *Graph) IncidentEdges(v int) []int {
	at := g.edgeAt[g.off[v]:g.off[v+1]]
	out := make([]int, 0, len(at))
	seen := make(map[int32]bool, len(at))
	for _, idx := range at {
		if !seen[idx] {
			seen[idx] = true
			out = append(out, int(idx))
		}
	}
	return out
}

// Validate checks the structural invariants: every port is assigned, the
// connection function is an involution, and the edge index is consistent.
func (g *Graph) Validate() error {
	n := g.N()
	for v := 0; v < n; v++ {
		for j := g.off[v]; j < g.off[v+1]; j++ {
			self := Port{Node: v, Num: int(j-g.off[v]) + 1}
			q := g.ports[j]
			if q.Node < 0 || q.Node >= n {
				return fmt.Errorf("graph: port %v connects to out-of-range node %d", self, q.Node)
			}
			if q.Num < 1 || q.Num > g.Deg(q.Node) {
				return fmt.Errorf("graph: port %v connects to out-of-range port %v", self, q)
			}
			if back := g.P(q.Node, q.Num); back != self {
				return fmt.Errorf("graph: involution violated at %v: p%v=%v but p%v=%v",
					self, self, q, q, back)
			}
			idx := g.edgeAt[j]
			if idx < 0 || int(idx) >= len(g.edges) {
				return fmt.Errorf("graph: edge index out of range at %v", self)
			}
			if e := g.edges[idx]; e.A != self && e.B != self {
				return fmt.Errorf("graph: edge index at %v points to unrelated edge %v", self, e)
			}
		}
	}
	return nil
}

// Equal reports whether two graphs have identical node sets, degrees, and
// involutions (hence identical port numberings).
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() {
		return false
	}
	for v := 1; v <= g.N(); v++ {
		if g.off[v] != h.off[v] {
			return false
		}
	}
	return slices.Equal(g.ports, h.ports)
}

// String renders a compact description, mostly for test failure messages.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}

// newGraph is the one constructor of Graph, shared by Builder.Build and
// ReadGraphLimits. It takes ownership of the flat involution (off and
// ports, laid out as in Graph), whose every assigned entry must name an
// existing port, and derives the routing table, the edge list and the
// edge index from it. An unassigned port (Num 0) is an error.
//
// Each involution orbit of size two becomes one undirected edge and each
// fixed point one directed loop. The scan visits ports in (node, port)
// order and emits an edge at its smaller end, Edge.A, so the edge list
// comes out sorted by Edge.A.
func newGraph(off []int32, ports []Port) (*Graph, error) {
	n := len(off) - 1
	for v := 0; v < n; v++ {
		for j := off[v]; j < off[v+1]; j++ {
			if ports[j].Num == 0 {
				return nil, fmt.Errorf("graph: port (%d,%d) left unconnected", v, j-off[v]+1)
			}
		}
	}
	route := make([]int32, len(ports))
	m := 0
	for j, q := range ports {
		route[j] = off[q.Node] + int32(q.Num-1)
		if route[j] >= int32(j) {
			m++
		}
	}
	edges := make([]Edge, 0, m)
	edgeAt := make([]int32, len(ports))
	for v := 0; v < n; v++ {
		for j := off[v]; j < off[v+1]; j++ {
			if r := route[j]; r >= j {
				idx := int32(len(edges))
				edges = append(edges, Edge{A: Port{Node: v, Num: int(j-off[v]) + 1}, B: ports[j]})
				edgeAt[j], edgeAt[r] = idx, idx
			}
		}
	}
	g := &Graph{off: off, ports: ports, route: route, edgeAt: edgeAt, edges: edges}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
