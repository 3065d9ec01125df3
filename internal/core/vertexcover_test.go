package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/local"
	"eds/internal/sim"
	"eds/internal/verify"
)

func TestVertexCover3Quick(t *testing.T) {
	// Feasibility, the 3-approximation bound, the 2-matching structure,
	// and agreement with the centralized reference.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch rng.Intn(3) {
		case 0:
			g = gen.RandomBoundedDegree(rng, 5+rng.Intn(12), 2+rng.Intn(4), 0.5)
		case 1:
			g = gen.RandomTree(rng, 3+rng.Intn(14))
		default:
			g = gen.MustRandomRegular(rng, 8+2*rng.Intn(4), 3)
		}
		if g.M() == 0 {
			return true
		}
		delta := g.MaxDegree()
		alg := core.VertexCover3{Delta: delta}
		res, err := sim.RunSequential(g, alg)
		if err != nil {
			return false
		}
		if res.Rounds > alg.Rounds(delta) {
			return false
		}
		// The selected edges form a 2-matching.
		if !verify.IsKMatching(g, res.Outputs, 2) {
			return false
		}
		// The cover is the nodes with non-empty output.
		cover := graph.CoveredNodes(g, res.Outputs)
		if !verify.IsVertexCover(g, cover) {
			return false
		}
		// Reference agreement.
		want := local.VertexCover3(g, delta)
		for v := range cover {
			if cover[v] != want[v] {
				return false
			}
		}
		// 3-approximation against the exact optimum.
		opt := verify.MinimumVertexCover(g)
		optSize, coverSize := 0, 0
		for v := range opt {
			if opt[v] {
				optSize++
			}
			if cover[v] {
				coverSize++
			}
		}
		return coverSize <= 3*optSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVertexCover3OnCycle(t *testing.T) {
	// On an even cycle the minimum vertex cover is n/2; the local
	// algorithm must stay within factor 3.
	g := gen.Cycle(12)
	alg := core.VertexCover3{Delta: 2}
	res, err := sim.RunSequential(g, alg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	cover := graph.CoveredNodes(g, res.Outputs)
	if !verify.IsVertexCover(g, cover) {
		t.Fatal("not a vertex cover")
	}
	size := 0
	for _, in := range cover {
		if in {
			size++
		}
	}
	if size > 3*6 {
		t.Errorf("cover size %d exceeds 3x optimum 6", size)
	}
}

func TestMinimumVertexCoverKnownValues(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"P2", gen.Path(2), 1},
		{"P5", gen.Path(5), 2},
		{"C5", gen.Cycle(5), 3},
		{"C6", gen.Cycle(6), 3},
		{"K4", gen.Complete(4), 3},
		{"Star5", gen.Star(5), 1},
		{"Petersen", gen.Petersen(), 6},
		{"K33", gen.CompleteBipartite(3, 3), 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cover := verify.MinimumVertexCover(tc.g)
			if !verify.IsVertexCover(tc.g, cover) {
				t.Fatal("result is not a vertex cover")
			}
			size := 0
			for _, in := range cover {
				if in {
					size++
				}
			}
			if size != tc.want {
				t.Errorf("min VC = %d, want %d", size, tc.want)
			}
		})
	}
}

func TestKoenigOnBipartiteQuick(t *testing.T) {
	// König: in bipartite graphs, min vertex cover = maximum matching.
	// Cross-validates the VC solver against the blossom algorithm.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := 2+rng.Intn(4), 2+rng.Intn(4)
		var edges [][2]int
		for u := 0; u < a; u++ {
			for v := 0; v < b; v++ {
				if rng.Intn(2) == 0 {
					edges = append(edges, [2]int{u, a + v})
				}
			}
		}
		g := graph.MustFromUndirected(a+b, edges)
		cover := verify.MinimumVertexCover(g)
		size := 0
		for _, in := range cover {
			if in {
				size++
			}
		}
		return size == verify.MaximumMatching(g).Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
