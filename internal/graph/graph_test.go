package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperH builds a simple graph with the properties the paper states for
// the graph H of Figure 2 (Section 5): node a has no uniquely labelled
// edges, a is the distinguishable neighbour of b, and d is the
// distinguishable neighbour of c.
//
//	p(a,1)=(c,2), p(a,2)=(b,1), p(b,2)=(d,2), p(c,1)=(d,1).
func paperH(t testing.TB) *Graph {
	t.Helper()
	const a, b, c, d = 0, 1, 2, 3
	bl := NewBuilder(4)
	bl.MustConnect(a, 1, c, 2)
	bl.MustConnect(a, 2, b, 1)
	bl.MustConnect(b, 2, d, 2)
	bl.MustConnect(c, 1, d, 1)
	return bl.MustBuild()
}

// paperM builds the multigraph M from Figure 2: nodes s (deg 3) and t
// (deg 4); p maps (s,1)↔(t,2), (s,2)↔(t,1), (s,3)↦(s,3), (t,3)↔(t,4).
func paperM(t testing.TB) *Graph {
	t.Helper()
	const s, tt = 0, 1
	bl := NewBuilder(2)
	bl.MustConnect(s, 1, tt, 2)
	bl.MustConnect(s, 2, tt, 1)
	bl.MustConnect(s, 3, s, 3) // directed loop
	bl.MustConnect(tt, 3, tt, 4)
	return bl.MustBuild()
}

func TestPaperFigure2SimpleGraph(t *testing.T) {
	g := paperH(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := g.N(), 4; got != want {
		t.Errorf("N = %d, want %d", got, want)
	}
	if got, want := g.M(), 4; got != want {
		t.Errorf("M = %d, want %d", got, want)
	}
	if !g.IsSimple() {
		t.Error("IsSimple = false, want true")
	}
	wantDeg := []int{2, 2, 2, 2}
	for v, want := range wantDeg {
		if got := g.Deg(v); got != want {
			t.Errorf("Deg(%d) = %d, want %d", v, got, want)
		}
	}
	if got := g.P(0, 1); got != (Port{Node: 2, Num: 2}) {
		t.Errorf("P(a,1) = %v, want (2,2)", got)
	}
	if d, ok := g.Regular(); !ok || d != 2 {
		t.Errorf("Regular = (%d,%v), want (2,true)", d, ok)
	}
}

func TestPaperFigure2Multigraph(t *testing.T) {
	g := paperM(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := g.N(), 2; got != want {
		t.Errorf("N = %d, want %d", got, want)
	}
	// Edges: two parallel s-t edges, one directed loop at s, one
	// undirected loop at t.
	if got, want := g.M(), 4; got != want {
		t.Errorf("M = %d, want %d", got, want)
	}
	if g.IsSimple() {
		t.Error("IsSimple = true, want false")
	}
	if got, want := g.Deg(0), 3; got != want {
		t.Errorf("Deg(s) = %d, want %d", got, want)
	}
	if got, want := g.Deg(1), 4; got != want {
		t.Errorf("Deg(t) = %d, want %d", got, want)
	}
	loops, directed := 0, 0
	for _, e := range g.Edges() {
		if e.IsLoop() {
			loops++
		}
		if e.IsDirectedLoop() {
			directed++
		}
	}
	if loops != 2 || directed != 1 {
		t.Errorf("loops = %d (directed %d), want 2 (1 directed)", loops, directed)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name string
		fn   func(b *Builder) error
	}{
		{"node out of range", func(b *Builder) error { return b.Connect(5, 1, 0, 1) }},
		{"port zero", func(b *Builder) error { return b.Connect(0, 0, 1, 1) }},
		{"double wire", func(b *Builder) error {
			if err := b.Connect(0, 1, 1, 1); err != nil {
				return err
			}
			return b.Connect(0, 1, 2, 1)
		}},
		{"peer port taken", func(b *Builder) error {
			if err := b.Connect(0, 1, 1, 1); err != nil {
				return err
			}
			return b.Connect(2, 1, 1, 1)
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.fn(NewBuilder(3)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// TestFailedConnectChangesNothing checks that a Connect that fails on
// its second port leaves the first node's port table as it was.
func TestFailedConnectChangesNothing(t *testing.T) {
	b := NewBuilder(2)
	if err := b.Connect(0, 3, 5, 1); err == nil {
		t.Fatal("Connect to a missing node succeeded")
	}
	b.MustConnect(0, 1, 1, 1)
	if _, err := b.Build(); err != nil {
		t.Fatalf("Build after a failed Connect: %v", err)
	}
}

func TestBuildRejectsUnconnectedPort(t *testing.T) {
	b := NewBuilder(2)
	b.MustConnect(0, 2, 1, 1) // leaves port (0,1) unassigned
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with a hole in the port space")
	}
}

func TestFromUndirected(t *testing.T) {
	g, err := FromUndirected(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatalf("FromUndirected: %v", err)
	}
	if d, ok := g.Regular(); !ok || d != 2 {
		t.Errorf("Regular = (%d,%v), want (2,true)", d, ok)
	}
	if _, err := FromUndirected(3, [][2]int{{0, 0}}); err == nil {
		t.Error("loop accepted")
	}
	if _, err := FromUndirected(3, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("parallel edge accepted")
	}
}

func TestEdgeAccessors(t *testing.T) {
	g := paperH(t)
	for v := 0; v < g.N(); v++ {
		for i := 1; i <= g.Deg(v); i++ {
			e := g.Edge(g.EdgeAt(v, i))
			if !e.Covers(v) {
				t.Errorf("EdgeAt(%d,%d) = %v does not cover %d", v, i, e, v)
			}
			q := g.P(v, i)
			if e.Other(v) != q.Node {
				t.Errorf("Other(%d) = %d, want %d", v, e.Other(v), q.Node)
			}
		}
	}
	if g.PortBetween(0, 3) != 0 {
		t.Error("PortBetween(a,d) should be 0 (no edge)")
	}
	if !g.HasEdgeBetween(2, 3) {
		t.Error("HasEdgeBetween(c,d) = false")
	}
}

// randomSimpleGraph builds a random simple graph for property tests.
func randomSimpleGraph(rng *rand.Rand, n int, prob float64) *Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < prob {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return MustFromUndirected(n, edges)
}

func TestInvolutionPropertyQuick(t *testing.T) {
	// For any random simple graph, p must be a self-inverse bijection and
	// the edge index must map both ports of an edge to the same index.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSimpleGraph(rng, 2+rng.Intn(14), rng.Float64())
		if err := g.Validate(); err != nil {
			return false
		}
		for v := 0; v < g.N(); v++ {
			for i := 1; i <= g.Deg(v); i++ {
				q := g.P(v, i)
				if g.P(q.Node, q.Num) != (Port{Node: v, Num: i}) {
					return false
				}
				if g.EdgeAt(v, i) != g.EdgeAt(q.Node, q.Num) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHandshakeLemmaQuick(t *testing.T) {
	// Sum of degrees = 2 * (#non-directed-loop edges) + (#directed loops)
	// ... with undirected loops contributing 2 ports of the same node.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomSimpleGraph(rng, 2+rng.Intn(14), rng.Float64())
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Deg(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIncidentEdgesDeduplicatesLoops(t *testing.T) {
	b := NewBuilder(1)
	b.MustConnect(0, 1, 0, 2) // undirected loop occupying two ports
	g := b.MustBuild()
	if got := g.IncidentEdges(0); len(got) != 1 {
		t.Errorf("IncidentEdges = %v, want exactly one edge", got)
	}
}

func TestGraphEqual(t *testing.T) {
	g := paperH(t)
	h := paperH(t)
	if !g.Equal(h) {
		t.Error("identical constructions not Equal")
	}
	b := NewBuilder(4)
	b.MustConnect(0, 1, 1, 1) // different wiring
	b.MustConnect(0, 2, 2, 1)
	b.MustConnect(0, 3, 1, 2)
	b.MustConnect(2, 2, 3, 1)
	if g.Equal(b.MustBuild()) {
		t.Error("different wirings reported Equal")
	}
}
