package verify

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eds/internal/gen"
	"eds/internal/graph"
)

func pathSet(t *testing.T, g *graph.Graph, pairs ...[2]int) *graph.EdgeSet {
	t.Helper()
	s, err := graph.EdgeSetFromPairs(g, pairs)
	if err != nil {
		t.Fatalf("EdgeSetFromPairs: %v", err)
	}
	return s
}

func TestFeasibilityPredicatesOnPath(t *testing.T) {
	// P6: 0-1-2-3-4-5.
	g := gen.Path(6)
	middle := pathSet(t, g, [2]int{1, 2}, [2]int{3, 4})
	ends := pathSet(t, g, [2]int{0, 1}, [2]int{4, 5})
	all := pathSet(t, g, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4}, [2]int{4, 5})

	if !IsEdgeDominatingSet(g, middle) {
		t.Error("middle edges should dominate P6")
	}
	if IsEdgeDominatingSet(g, ends) {
		t.Error("end edges do not dominate the middle edge of P6")
	}
	if !IsMatching(g, middle) || !IsMaximalMatching(g, middle) {
		t.Error("middle edges should be a maximal matching")
	}
	if IsMaximalMatching(g, ends) {
		t.Error("end edges are not maximal (edge {2,3} is free)")
	}
	if IsMatching(g, all) {
		t.Error("all edges of a path are not a matching")
	}
	if !IsKMatching(g, all, 2) {
		t.Error("a path is a 2-matching")
	}
	if IsEdgeCover(g, middle) {
		t.Error("middle edges do not cover nodes 0 and 5")
	}
	if !IsEdgeCover(g, all) {
		t.Error("all edges cover everything")
	}
	if !IsForest(g, all) {
		t.Error("a path is a forest")
	}
	if IsStarForest(g, all) {
		t.Error("P6's edge set contains a path of length 3")
	}
	if !IsStarForest(g, ends) {
		t.Error("two disjoint edges form a star forest")
	}
}

func TestIsForestDetectsCycle(t *testing.T) {
	g := gen.Cycle(4)
	all := allEdgeSet(g)
	if IsForest(g, all) {
		t.Error("C4 is not a forest")
	}
	three := all.Clone()
	three.Remove(0)
	if !IsForest(g, three) {
		t.Error("C4 minus an edge is a forest")
	}
}

func TestStarForestStars(t *testing.T) {
	g := gen.Star(5)
	if !IsStarForest(g, allEdgeSet(g)) {
		t.Error("a star is a star forest")
	}
}

func TestExactSolversKnownValues(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"P2", gen.Path(2), 1},
		{"P4", gen.Path(4), 1}, // the middle edge dominates
		{"P5", gen.Path(5), 2},
		{"C4", gen.Cycle(4), 2},
		{"C5", gen.Cycle(5), 2},
		{"C7", gen.Cycle(7), 3}, // ceil(7/3)
		{"K4", gen.Complete(4), 2},
		{"K5", gen.Complete(5), 2},
		{"Star6", gen.Star(6), 1},
		{"Petersen", gen.Petersen(), 3},
		{"PerfectMatching3", gen.PerfectMatching(3), 3},
		{"K33", gen.CompleteBipartite(3, 3), 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mmm := MinimumMaximalMatching(tc.g)
			if !IsMaximalMatching(tc.g, mmm) {
				t.Fatal("MinimumMaximalMatching result is not a maximal matching")
			}
			if got := mmm.Count(); got != tc.want {
				t.Errorf("MMM = %d, want %d", got, tc.want)
			}
			eds := MinimumEdgeDominatingSet(tc.g)
			if !IsEdgeDominatingSet(tc.g, eds) {
				t.Fatal("MinimumEdgeDominatingSet result is not an EDS")
			}
			if got := eds.Count(); got != tc.want {
				t.Errorf("minEDS = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestYannakakisGavrilEquivalenceQuick(t *testing.T) {
	// min EDS = min maximal matching on every graph (Yannakakis-Gavril).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomBoundedDegree(rng, 4+rng.Intn(7), 1+rng.Intn(4), 0.5)
		return MinimumEdgeDominatingSet(g).Count() == MinimumMaximalMatching(g).Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyMaximalMatchingQuick(t *testing.T) {
	// Greedy gives a maximal matching, and any maximal matching is at
	// most twice the minimum one (the 2-approximation of Section 1.2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomBoundedDegree(rng, 4+rng.Intn(8), 1+rng.Intn(4), 0.5)
		mm := GreedyMaximalMatching(g)
		if !IsMaximalMatching(g, mm) {
			return false
		}
		opt := MinimumMaximalMatching(g)
		return mm.Count() <= 2*opt.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaximalMatchingFromEDSQuick(t *testing.T) {
	// Section 1.1: from an EDS D we can always construct a maximal
	// matching no larger than D.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomBoundedDegree(rng, 4+rng.Intn(10), 1+rng.Intn(5), 0.5)
		// Build a sloppy EDS: the greedy matching plus random extras.
		d := GreedyMaximalMatching(g)
		for idx := 0; idx < g.M(); idx++ {
			if rng.Intn(3) == 0 {
				d.Add(idx)
			}
		}
		m, err := MaximalMatchingFromEDS(g, d)
		if err != nil {
			return false
		}
		return IsMaximalMatching(g, m) && m.Count() <= d.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaximalMatchingFromEDSRejectsNonEDS(t *testing.T) {
	g := gen.Path(6)
	bad := graph.NewEdgeSet(g.M())
	bad.Add(0) // only the first edge: middle of P6 undominated
	if _, err := MaximalMatchingFromEDS(g, bad); err == nil {
		t.Error("non-EDS accepted")
	}
}
