package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/lowerbound"
	"eds/internal/ratio"
	"eds/internal/sim"
	"eds/internal/verify"
)

func TestIDMatchingMaximalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomBoundedDegree(rng, 4+rng.Intn(16), 1+rng.Intn(5), 0.5)
		mm, res, err := sim.RunToEdgeSet(g, core.IDMatching{})
		if err != nil {
			return false
		}
		if !verify.IsMaximalMatching(g, mm) {
			return false
		}
		// Termination within the O(n) phase bound (3 rounds per phase
		// plus the ID exchange and shutdown slack).
		return res.Rounds <= 3*(g.N()+3)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIDsBreakTheAdversarialConstruction(t *testing.T) {
	// The heart of Section 1.3: on the Theorem 1 construction every
	// deterministic *anonymous* algorithm pays 4-2/d, but a deterministic
	// algorithm with unique IDs achieves a maximal matching, i.e. ratio
	// at most 2.
	for _, d := range []int{4, 6, 8} {
		c := lowerbound.MustEven(d)
		mm, _, err := sim.RunToEdgeSet(c.G, core.IDMatching{})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !verify.IsMaximalMatching(c.G, mm) {
			t.Fatalf("d=%d: not a maximal matching", d)
		}
		measured := ratio.New(int64(mm.Count()), int64(c.Opt.Count()))
		if !measured.LessEq(ratio.FromInt(2)) {
			t.Errorf("d=%d: ID-based matching ratio %v exceeds 2", d, measured)
		}
		forced := ratio.EvenRegularBound(d)
		if measured.Cmp(forced) >= 0 {
			t.Errorf("d=%d: IDs did not beat the anonymous bound: %v >= %v", d, measured, forced)
		}
	}
}

func TestIDMatchingEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.MustRandomRegular(rng, 12, 3)
	seq, err := sim.RunSequential(g, core.IDMatching{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	sh, err := sim.RunSharded(g, core.IDMatching{}, sim.WithShards(3))
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if !reflect.DeepEqual(seq.Outputs, sh.Outputs) {
		t.Error("engines disagree on IDMatching")
	}
}

func TestIDMatchingOnEdgeCases(t *testing.T) {
	t.Run("single edge", func(t *testing.T) {
		g := gen.Path(2)
		mm, _, err := sim.RunToEdgeSet(g, core.IDMatching{})
		if err != nil {
			t.Fatal(err)
		}
		if mm.Count() != 1 {
			t.Errorf("got %d edges, want 1", mm.Count())
		}
	})
	t.Run("isolated nodes", func(t *testing.T) {
		g, err := sim.RunSequential(gen.PerfectMatching(1), core.IDMatching{})
		if err != nil {
			t.Fatal(err)
		}
		_ = g
	})
	t.Run("star", func(t *testing.T) {
		g := gen.Star(6)
		mm, _, err := sim.RunToEdgeSet(g, core.IDMatching{})
		if err != nil {
			t.Fatal(err)
		}
		if mm.Count() != 1 {
			t.Errorf("star matching size %d, want 1", mm.Count())
		}
	})
}
