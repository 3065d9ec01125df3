package lowerbound_test

import (
	"reflect"
	"testing"

	"eds/internal/core"
	"eds/internal/graph"
	"eds/internal/lowerbound"
	"eds/internal/ratio"
	"eds/internal/sim"
	"eds/internal/verify"
)

// TestTheorem1Tightness runs the Theorem 3 algorithm on the Theorem 1
// construction: the measured ratio must equal 4 - 2/d exactly — the lower
// bound forces at least this much and the upper bound allows no more.
func TestTheorem1Tightness(t *testing.T) {
	for _, d := range []int{2, 4, 6, 8, 10, 12} {
		c := lowerbound.MustEven(d)
		res, err := sim.RunSequential(c.G, core.PortOne{})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		got := res.Outputs
		if !verify.IsEdgeDominatingSet(c.G, got) {
			t.Fatalf("d=%d: output not an EDS", d)
		}
		measured := ratio.New(int64(got.Count()), int64(c.Opt.Count()))
		want := ratio.EvenRegularBound(d)
		if !measured.Equal(want) {
			t.Errorf("d=%d: measured ratio %v, want exactly %v", d, measured, want)
		}
		// The forced structure: the algorithm selects a full 2-factor,
		// i.e. |D| = |V| = 2d-1.
		if got.Count() != 2*d-1 {
			t.Errorf("d=%d: |D| = %d, want %d", d, got.Count(), 2*d-1)
		}
	}
}

// TestTheorem2Tightness runs the Theorem 4 algorithm on the Theorem 2
// construction: the measured ratio must equal 4 - 6/(d+1) exactly.
func TestTheorem2Tightness(t *testing.T) {
	for _, d := range []int{1, 3, 5, 7, 9} {
		c := lowerbound.MustOdd(d)
		res, err := sim.RunSequential(c.G, core.RegularOdd{})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		got := res.Outputs
		if !verify.IsEdgeDominatingSet(c.G, got) {
			t.Fatalf("d=%d: output not an EDS", d)
		}
		if want := (core.RegularOdd{}).Rounds(d); res.Rounds != want {
			t.Errorf("d=%d: rounds = %d, want %d", d, res.Rounds, want)
		}
		measured := ratio.New(int64(got.Count()), int64(c.Opt.Count()))
		want := ratio.OddRegularBound(d)
		if !measured.Equal(want) {
			t.Errorf("d=%d: measured ratio %v, want exactly %v", d, measured, want)
		}
		// Section 4.4: any algorithm is forced to select at least
		// (2d-1)d edges; Theorem 4's output achieves it with equality.
		if got.Count() != (2*d-1)*d {
			t.Errorf("d=%d: |D| = %d, want %d", d, got.Count(), (2*d-1)*d)
		}
		// The output must be a star forest and an edge cover (Theorem 4's
		// structural invariants).
		if !verify.IsStarForest(c.G, got) {
			t.Errorf("d=%d: output is not a star forest", d)
		}
		if !verify.IsEdgeCover(c.G, got) {
			t.Errorf("d=%d: output is not an edge cover", d)
		}
	}
}

// TestCorollary1Tightness runs A(Δ) on the Theorem 1 construction with
// d = 2k (the Corollary 1 instance for both Δ = 2k and Δ = 2k+1): the
// measured ratio must equal 4 - 1/k exactly.
func TestCorollary1Tightness(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5} {
		c := lowerbound.MustEven(2 * k)
		for _, delta := range []int{2 * k, 2*k + 1} {
			alg := core.NewGeneral(delta)
			res, err := sim.RunSequential(c.G, alg)
			if err != nil {
				t.Fatalf("k=%d Δ=%d: %v", k, delta, err)
			}
			got := res.Outputs
			if !verify.IsEdgeDominatingSet(c.G, got) {
				t.Fatalf("k=%d Δ=%d: output not an EDS", k, delta)
			}
			measured := ratio.New(int64(got.Count()), int64(c.Opt.Count()))
			want := ratio.BoundedDegreeBound(delta)
			if !measured.Equal(want) {
				t.Errorf("k=%d Δ=%d: measured ratio %v, want exactly %v", k, delta, measured, want)
			}
		}
	}
}

// TestUniformOutputsOnFibres verifies the covering-map lemma end to end:
// on the adversarial constructions, all nodes of the same fibre produce
// identical outputs, and those outputs equal the quotient node's output
// when the same algorithm runs on the quotient multigraph.
func TestUniformOutputsOnFibres(t *testing.T) {
	t.Run("even d=6 portone", func(t *testing.T) {
		c := lowerbound.MustEven(6)
		checkFibres(t, c, core.PortOne{})
	})
	t.Run("odd d=5 regularodd", func(t *testing.T) {
		c := lowerbound.MustOdd(5)
		checkFibres(t, c, core.RegularOdd{})
	})
	t.Run("odd d=5 general", func(t *testing.T) {
		c := lowerbound.MustOdd(5)
		checkFibres(t, c, core.NewGeneral(5))
	})
}

func checkFibres(t *testing.T, c *lowerbound.Construction, alg sim.Algorithm) {
	t.Helper()
	rg, err := sim.RunSequential(c.G, alg)
	if err != nil {
		t.Fatalf("run on G: %v", err)
	}
	rq, err := sim.RunSequential(c.Quotient, alg)
	if err != nil {
		t.Fatalf("run on quotient: %v", err)
	}
	for v := 0; v < c.G.N(); v++ {
		xg, xq := graph.PortsIn(c.G, rg.Outputs, v), graph.PortsIn(c.Quotient, rq.Outputs, c.Map[v])
		if !reflect.DeepEqual(xg, xq) {
			t.Fatalf("node %d outputs %v but its quotient image %d outputs %v", v, xg, c.Map[v], xq)
		}
	}
}

// TestAnyAlgorithmForcedOnEven spot-checks the Theorem 1 argument itself
// for other algorithms: whatever deterministic algorithm runs on the
// construction, its output size is at least |V| = 2d-1 whenever it is a
// feasible EDS (every node selects the same non-empty port set, so a full
// 2-factor is selected).
func TestAnyAlgorithmForcedOnEven(t *testing.T) {
	c := lowerbound.MustEven(6)
	algs := []sim.Algorithm{
		core.PortOne{},
		core.NewGeneral(6),
		core.NewGeneral(9), // even with slack, the bound is forced
	}
	for _, alg := range algs {
		res, err := sim.RunSequential(c.G, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		got := res.Outputs
		if !verify.IsEdgeDominatingSet(c.G, got) {
			t.Fatalf("%s: not an EDS", alg.Name())
		}
		if got.Count() < c.G.N() {
			t.Errorf("%s: |D| = %d < |V| = %d contradicts Theorem 1", alg.Name(), got.Count(), c.G.N())
		}
	}
}
