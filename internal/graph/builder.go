package graph

import (
	"errors"
	"fmt"
)

// Builder assembles a port-numbered graph incrementally. Two styles are
// supported and may be mixed:
//
//   - AddEdge(u, v): assign the next free port on each endpoint, in call
//     order. This matches the common construction "take an undirected graph
//     and equip it with an arbitrary port numbering compatible with E".
//   - Connect(u, i, v, j): wire explicit ports, as required by the paper's
//     lower-bound constructions where the port numbering is the adversary's
//     choice.
//
// The zero value is a builder for the empty graph; use NewBuilder or
// AddNodes to size it.
type Builder struct {
	conn [][]Port // conn[v][i-1]; zero Port{} means unassigned (Num==0)
}

// NewBuilder returns a builder for a graph with n isolated nodes.
func NewBuilder(n int) *Builder {
	return &Builder{conn: make([][]Port, n)}
}

// AddNodes appends k isolated nodes and returns the index of the first one.
func (b *Builder) AddNodes(k int) int {
	first := len(b.conn)
	b.conn = append(b.conn, make([][]Port, k)...)
	return first
}

// N returns the current number of nodes.
func (b *Builder) N() int { return len(b.conn) }

// checkFree returns an error unless port i of node v can be wired: v
// must be a node, i at least 1, and the port not wired yet. A port past
// the end of v's table is not wired yet.
func (b *Builder) checkFree(v, i int) error {
	if err := checkPortName(v, i, len(b.conn)); err != nil {
		return err
	}
	if i <= len(b.conn[v]) {
		if q := b.conn[v][i-1]; q.Num != 0 {
			return errWired(v, i, q)
		}
	}
	return nil
}

// grow extends node v's port table to include port i.
func (b *Builder) grow(v, i int) {
	for len(b.conn[v]) < i {
		b.conn[v] = append(b.conn[v], Port{})
	}
}

// checkPortName returns an error unless (v, i) can name a port of a
// graph with n nodes: v must be a node and i at least 1.
func checkPortName(v, i, n int) error {
	if v < 0 || v >= n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, n)
	}
	if i < 1 {
		return fmt.Errorf("graph: port number %d must be >= 1", i)
	}
	return nil
}

// errWired reports an attempt to wire port (v, i) a second time; q is
// the port it is already connected to.
func errWired(v, i int, q Port) error {
	return fmt.Errorf("graph: port (%d,%d) already connected to %v", v, i, q)
}

// Connect wires port i of node u to port j of node v (and vice versa,
// keeping the involution property). Connecting a port to itself creates a
// directed loop; u == v with i != j creates an undirected loop. Both ends
// are checked before either node's port table grows, so a failed Connect
// leaves the builder as it was.
func (b *Builder) Connect(u, i, v, j int) error {
	if err := b.checkFree(u, i); err != nil {
		return err
	}
	if u == v && i == j {
		b.grow(u, i)
		b.conn[u][i-1] = Port{Node: u, Num: i}
		return nil
	}
	if err := b.checkFree(v, j); err != nil {
		return err
	}
	b.grow(u, i)
	b.grow(v, j)
	b.conn[u][i-1] = Port{Node: v, Num: j}
	b.conn[v][j-1] = Port{Node: u, Num: i}
	return nil
}

// MustConnect is Connect but panics on error; for use in generators whose
// inputs are correct by construction.
func (b *Builder) MustConnect(u, i, v, j int) {
	if err := b.Connect(u, i, v, j); err != nil {
		panic(err)
	}
}

// nextFree returns the lowest unassigned port number of node v.
func (b *Builder) nextFree(v int) int {
	for i, p := range b.conn[v] {
		if p.Num == 0 {
			return i + 1
		}
	}
	return len(b.conn[v]) + 1
}

// AddEdge connects u and v using the next free port on each side and
// returns the two assigned port numbers. For u == v it creates an
// undirected loop occupying two ports of u.
func (b *Builder) AddEdge(u, v int) (ui, vi int, err error) {
	if u < 0 || u >= len(b.conn) || v < 0 || v >= len(b.conn) {
		return 0, 0, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(b.conn))
	}
	ui = b.nextFree(u)
	if u == v {
		vi = ui + 1
	} else {
		vi = b.nextFree(v)
	}
	if err := b.Connect(u, ui, v, vi); err != nil {
		return 0, 0, err
	}
	return ui, vi, nil
}

// MustAddEdge is AddEdge but panics on error.
func (b *Builder) MustAddEdge(u, v int) (ui, vi int) {
	ui, vi, err := b.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return ui, vi
}

// AddDirectedLoop attaches a directed loop (involution fixed point) at the
// next free port of v and returns the port number.
func (b *Builder) AddDirectedLoop(v int) (int, error) {
	if v < 0 || v >= len(b.conn) {
		return 0, fmt.Errorf("graph: node %d out of range [0,%d)", v, len(b.conn))
	}
	i := b.nextFree(v)
	if err := b.Connect(v, i, v, i); err != nil {
		return 0, err
	}
	return i, nil
}

// Build validates that every port is wired and returns the immutable graph.
func (b *Builder) Build() (*Graph, error) {
	total := 0
	for _, ps := range b.conn {
		total += len(ps)
	}
	if err := checkPortSpace(total); err != nil {
		return nil, err
	}
	off := make([]int32, len(b.conn)+1)
	ports := make([]Port, 0, total)
	for v, ps := range b.conn {
		off[v] = int32(len(ports))
		ports = append(ports, ps...)
	}
	off[len(b.conn)] = int32(total)
	return newGraph(off, ports)
}

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// ErrNotSimple is returned by FromUndirected when the edge list contains a
// loop or a duplicate edge.
var ErrNotSimple = errors.New("graph: edge list is not simple")

// FromUndirected builds a simple port-numbered graph on n nodes from an
// undirected edge list, assigning ports in edge-list order. It rejects
// loops and parallel edges.
func FromUndirected(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("%w: loop {%d,%d}", ErrNotSimple, u, v)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("%w: duplicate edge {%d,%d}", ErrNotSimple, u, v)
		}
		seen[key] = true
		if _, _, err := b.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// MustFromUndirected is FromUndirected but panics on error.
func MustFromUndirected(n int, edges [][2]int) *Graph {
	g, err := FromUndirected(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
