package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(130) // spans three words
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Add(i)
	}
	if got, want := s.Count(), 5; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if !s.Has(64) || s.Has(1) {
		t.Error("membership wrong after Add")
	}
	s.Remove(64)
	if s.Has(64) {
		t.Error("Has(64) after Remove")
	}
	got := s.Indices()
	want := []int{0, 63, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestEdgeSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range index")
		}
	}()
	NewEdgeSet(10).Add(10)
}

func TestEdgeSetAlgebraQuick(t *testing.T) {
	// Union/Subtract/Intersect agree with per-element semantics.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(200)
		a, b := NewEdgeSet(m), NewEdgeSet(m)
		inA := make([]bool, m)
		inB := make([]bool, m)
		for i := 0; i < m; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
				inA[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
				inB[i] = true
			}
		}
		u := a.Clone()
		u.Union(b)
		d := a.Clone()
		d.Subtract(b)
		x := a.Clone()
		x.Intersect(b)
		for i := 0; i < m; i++ {
			if u.Has(i) != (inA[i] || inB[i]) {
				return false
			}
			if d.Has(i) != (inA[i] && !inB[i]) {
				return false
			}
			if x.Has(i) != (inA[i] && inB[i]) {
				return false
			}
		}
		if a.Disjoint(b) != x.Empty() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestEdgeSetFromWords(t *testing.T) {
	words := []uint64{1 << 63, 1 << 1}
	s := EdgeSetFromWords(66, words)
	if s.Universe() != 66 || !s.Has(63) || !s.Has(65) || s.Count() != 2 {
		t.Errorf("EdgeSetFromWords(66, %x) = %v over %d edges", words, s, s.Universe())
	}
	if back := EdgeSetFromWords(66, s.Clone().Words()); !back.Equal(s) {
		t.Errorf("Words does not round-trip: %v, want %v", back, s)
	}
	for _, bad := range []struct {
		m     int
		words []uint64
	}{
		{66, []uint64{0}},         // too few words
		{64, []uint64{0, 0}},      // too many words
		{66, []uint64{0, 1 << 2}}, // bit 66 lies outside the universe
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EdgeSetFromWords(%d, %x) did not panic", bad.m, bad.words)
				}
			}()
			EdgeSetFromWords(bad.m, bad.words)
		}()
	}
}

func TestPortsIn(t *testing.T) {
	// Node 0: an undirected loop on ports 1-2, a directed loop on port
	// 3, and an edge to node 1 on port 4.
	b := NewBuilder(2)
	b.MustConnect(0, 1, 0, 2)
	b.MustConnect(0, 3, 0, 3)
	b.MustConnect(0, 4, 1, 1)
	g := b.MustBuild()
	s := NewEdgeSet(g.M())
	s.Add(g.EdgeAt(0, 1))
	s.Add(g.EdgeAt(0, 4))
	if got := PortsIn(g, s, 0); fmt.Sprint(got) != "[1 2 4]" {
		t.Errorf("PortsIn(node 0) = %v, want [1 2 4]", got)
	}
	if got := PortsIn(g, s, 1); fmt.Sprint(got) != "[1]" {
		t.Errorf("PortsIn(node 1) = %v, want [1]", got)
	}
}

func TestCoveredNodesAndDegreeIn(t *testing.T) {
	g := MustFromUndirected(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	s := NewEdgeSet(g.M())
	s.Add(g.EdgeAt(0, g.PortBetween(0, 1)))
	s.Add(g.EdgeAt(1, g.PortBetween(1, 2)))
	covered := CoveredNodes(g, s)
	wantCovered := []bool{true, true, true, false, false}
	for v, want := range wantCovered {
		if covered[v] != want {
			t.Errorf("covered[%d] = %v, want %v", v, covered[v], want)
		}
	}
	deg := DegreeIn(g, s)
	wantDeg := []int{1, 2, 1, 0, 0}
	for v, want := range wantDeg {
		if deg[v] != want {
			t.Errorf("deg[%d] = %d, want %d", v, deg[v], want)
		}
	}
}

func TestEdgeSetFromPairs(t *testing.T) {
	g := MustFromUndirected(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	s, err := EdgeSetFromPairs(g, [][2]int{{1, 0}, {2, 3}})
	if err != nil {
		t.Fatalf("EdgeSetFromPairs: %v", err)
	}
	if got := s.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	pairs := SortedPairs(g, s)
	want := [][2]int{{0, 1}, {2, 3}}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("SortedPairs = %v, want %v", pairs, want)
		}
	}
	if _, err := EdgeSetFromPairs(g, [][2]int{{0, 3}}); err == nil {
		t.Error("missing edge accepted")
	}
}

func TestEdgeSetForEachEarlyStop(t *testing.T) {
	s := NewEdgeSetOf(100, 3, 50, 80)
	var visited []int
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 2
	})
	if len(visited) != 2 || visited[0] != 3 || visited[1] != 50 {
		t.Errorf("visited = %v, want [3 50]", visited)
	}
}
