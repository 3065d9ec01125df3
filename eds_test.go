package eds_test

import (
	"math/rand"
	"testing"

	"eds"
)

func TestForGraphSelection(t *testing.T) {
	tests := []struct {
		name      string
		g         *eds.Graph
		algorithm string
		ratio     string
	}{
		{"single edge", eds.Path(2), "alledges", "1"},
		{"cycle", eds.Cycle(10), "portone", "3"},
		{"K4 (3-regular)", eds.Complete(4), "regularodd", "5/2"},
		{"torus (4-regular)", eds.Torus(3, 4), "portone", "7/2"},
		{"path (irregular)", eds.Path(5), "general(Δ=3)", "3"},
		{"K5 minus nothing", eds.Complete(5), "portone", "7/2"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			alg, bound, err := eds.ForGraph(tc.g)
			if err != nil {
				t.Fatalf("ForGraph: %v", err)
			}
			if alg.Name() != tc.algorithm {
				t.Errorf("algorithm = %s, want %s", alg.Name(), tc.algorithm)
			}
			if bound.String() != tc.ratio {
				t.Errorf("bound = %s, want %s", bound, tc.ratio)
			}
			if !bound.Equal(eds.TightRatio(tc.g)) {
				t.Error("ForGraph bound != TightRatio")
			}
		})
	}
}

func TestQuickstartFlow(t *testing.T) {
	g := eds.Cycle(12)
	alg, bound, err := eds.ForGraph(g)
	if err != nil {
		t.Fatalf("ForGraph: %v", err)
	}
	d, res, err := eds.Run(g, alg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !eds.IsEdgeDominatingSet(g, d) {
		t.Fatal("output infeasible")
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1 for PortOne", res.Rounds)
	}
	measured, err := eds.MeasuredRatio(g, d)
	if err != nil {
		t.Fatalf("MeasuredRatio: %v", err)
	}
	if !measured.LessEq(bound) {
		t.Errorf("measured %v exceeds guarantee %v", measured, bound)
	}
}

func TestEnginesAgreeViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := eds.RandomRegular(rng, 14, 3)
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	alg, _, err := eds.ForGraph(g)
	if err != nil {
		t.Fatalf("ForGraph: %v", err)
	}
	d1, _, err := eds.Run(g, alg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d2, _, err := eds.RunSharded(g, alg, eds.WithShards(3))
	if err != nil {
		t.Fatalf("RunSharded(P=3): %v", err)
	}
	if !d1.Equal(d2) {
		t.Error("sequential and 3-shard engines disagree")
	}
	d3, _, err := eds.RunSharded(g, alg)
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if !d1.Equal(d3) {
		t.Error("sequential and sharded engines disagree")
	}
	d4, _, err := eds.RunAuto(g, alg)
	if err != nil {
		t.Fatalf("RunAuto: %v", err)
	}
	if !d1.Equal(d4) {
		t.Error("auto-selected engine disagrees with sequential")
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := eds.Complete(6)
	mm := eds.GreedyMaximalMatching(g)
	if !eds.IsMaximalMatching(g, mm) {
		t.Error("greedy result is not a maximal matching")
	}
	opt := eds.MinimumEdgeDominatingSet(g)
	if opt.Count() > mm.Count() {
		t.Error("optimum larger than a maximal matching")
	}
	if !eds.IsEdgeDominatingSet(g, opt) {
		t.Error("optimum is not an EDS")
	}
}

func TestBuilderFacade(t *testing.T) {
	b := eds.NewBuilder(2)
	if err := b.Connect(0, 1, 1, 1); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if _, err := eds.FromUndirected(3, [][2]int{{0, 1}, {1, 2}}); err != nil {
		t.Errorf("FromUndirected: %v", err)
	}
}
