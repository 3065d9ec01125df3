package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// EdgeSet is a set of edges of one particular graph, stored as a bitset
// over the graph's canonical edge indices. The zero value is not usable;
// create sets with NewEdgeSet.
type EdgeSet struct {
	words []uint64
	size  int // number of edge slots, not the population count
}

// NewEdgeSet returns an empty edge set for a graph with m edges.
func NewEdgeSet(m int) *EdgeSet {
	return &EdgeSet{words: make([]uint64, (m+63)/64), size: m}
}

// EdgeSetFromWords returns the edge set of a graph with m edges whose
// bitset is words, which it adopts: bit i%64 of words[i/64] is edge i.
// words must have (m+63)/64 entries and no bit set at or above m.
func EdgeSetFromWords(m int, words []uint64) *EdgeSet {
	if len(words) != (m+63)/64 || (m%64 != 0 && words[len(words)-1]>>(uint(m)%64) != 0) {
		panic(fmt.Sprintf("graph: %d words do not form an edge set over %d edges", len(words), m))
	}
	return &EdgeSet{words: words, size: m}
}

// Words returns the set's bitset in the layout EdgeSetFromWords adopts:
// bit i%64 of word i/64 is edge i. The caller must not modify it.
func (s *EdgeSet) Words() []uint64 { return s.words }

// NewEdgeSetOf returns an edge set containing exactly the given indices.
func NewEdgeSetOf(m int, indices ...int) *EdgeSet {
	s := NewEdgeSet(m)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Universe returns the number of edge slots the set was created for.
func (s *EdgeSet) Universe() int { return s.size }

// Add inserts edge index i.
func (s *EdgeSet) Add(i int) {
	s.check(i)
	s.words[i/64] |= 1 << (uint(i) % 64)
}

// Remove deletes edge index i.
func (s *EdgeSet) Remove(i int) {
	s.check(i)
	s.words[i/64] &^= 1 << (uint(i) % 64)
}

// Has reports whether edge index i is present.
func (s *EdgeSet) Has(i int) bool {
	s.check(i)
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (s *EdgeSet) check(i int) {
	if i < 0 || i >= s.size {
		panic(fmt.Sprintf("graph: edge index %d out of range [0,%d)", i, s.size))
	}
}

// Count returns the number of edges in the set.
func (s *EdgeSet) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether the set has no edges.
func (s *EdgeSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *EdgeSet) Clone() *EdgeSet {
	c := &EdgeSet{words: make([]uint64, len(s.words)), size: s.size}
	copy(c.words, s.words)
	return c
}

// Union adds all edges of t into s. The sets must share a universe size.
func (s *EdgeSet) Union(t *EdgeSet) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// Subtract removes all edges of t from s.
func (s *EdgeSet) Subtract(t *EdgeSet) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Intersect keeps only the edges also present in t.
func (s *EdgeSet) Intersect(t *EdgeSet) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// Equal reports whether s and t contain exactly the same edges.
func (s *EdgeSet) Equal(t *EdgeSet) bool {
	if s.size != t.size {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Disjoint reports whether s and t share no edge.
func (s *EdgeSet) Disjoint(t *EdgeSet) bool {
	s.sameUniverse(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return false
		}
	}
	return true
}

func (s *EdgeSet) sameUniverse(t *EdgeSet) {
	if s.size != t.size {
		panic(fmt.Sprintf("graph: edge set universe mismatch %d vs %d", s.size, t.size))
	}
}

// Indices returns the sorted slice of edge indices in the set.
func (s *EdgeSet) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// ForEach calls fn for every edge index in ascending order. If fn returns
// false, iteration stops early.
func (s *EdgeSet) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*64 + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// String formats the set as "{0, 3, 7}".
func (s *EdgeSet) String() string {
	idx := s.Indices()
	parts := make([]string, len(idx))
	for i, e := range idx {
		parts[i] = fmt.Sprint(e)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// CoveredNodes returns, for edge set s in graph g, the boolean vector of
// nodes covered by (incident to) at least one edge of s.
func CoveredNodes(g *Graph, s *EdgeSet) []bool {
	covered := make([]bool, g.N())
	s.ForEach(func(i int) bool {
		e := g.Edge(i)
		covered[e.A.Node] = true
		covered[e.B.Node] = true
		return true
	})
	return covered
}

// DegreeIn returns, for each node, the number of edges of s incident to it.
// Loops count twice for undirected loops and once for directed loops,
// matching the degree convention.
func DegreeIn(g *Graph, s *EdgeSet) []int {
	deg := make([]int, g.N())
	s.ForEach(func(i int) bool {
		e := g.Edge(i)
		deg[e.A.Node]++
		if e.A != e.B {
			deg[e.B.Node]++
		}
		return true
	})
	return deg
}

// PortsIn returns, in ascending order, the ports of node v whose edges
// are in s: the set X(v) of a run whose output is s (both ports of an
// undirected loop, if it is in s).
func PortsIn(g *Graph, s *EdgeSet, v int) []int {
	var out []int
	for i := 1; i <= g.Deg(v); i++ {
		if s.Has(g.EdgeAt(v, i)) {
			out = append(out, i)
		}
	}
	return out
}

// EdgeSetFromPairs builds an edge set from node pairs, resolving each pair
// to an arbitrary edge between the nodes. It fails if some pair has no
// edge. Intended for tests and examples on simple graphs.
func EdgeSetFromPairs(g *Graph, pairs [][2]int) (*EdgeSet, error) {
	s := NewEdgeSet(g.M())
	for _, pr := range pairs {
		i := g.PortBetween(pr[0], pr[1])
		if i == 0 {
			return nil, fmt.Errorf("graph: no edge between %d and %d", pr[0], pr[1])
		}
		s.Add(g.EdgeAt(pr[0], i))
	}
	return s, nil
}

// SortedPairs returns the node pairs {u,v} of the edges in s, each sorted
// ascending, for human-readable output.
func SortedPairs(g *Graph, s *EdgeSet) [][2]int {
	out := make([][2]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		e := g.Edge(i)
		u, v := e.A.Node, e.B.Node
		if u > v {
			u, v = v, u
		}
		out = append(out, [2]int{u, v})
		return true
	})
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}
