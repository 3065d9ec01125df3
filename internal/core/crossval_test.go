package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/local"
	"eds/internal/sim"
)

// runEdgeSet executes the algorithm sequentially and returns the chosen
// edge set, failing the property on any error.
func runEdgeSet(t testing.TB, g *graph.Graph, a sim.Algorithm) (*graph.EdgeSet, *sim.Result) {
	t.Helper()
	d, res, err := sim.RunToEdgeSet(g, a)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	return d, res
}

func TestPortOneMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(6)
		n := d + 1 + rng.Intn(10)
		if n*d%2 != 0 {
			n++
		}
		g := gen.MustRandomRegular(rng, n, d)
		got, res, err := sim.RunToEdgeSet(g, core.PortOne{})
		if err != nil {
			return false
		}
		if res.Rounds != 1 {
			return false
		}
		return got.Equal(local.PortOne(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRegularOddMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := []int{1, 3, 5}[rng.Intn(3)]
		n := d + 1 + rng.Intn(10)
		if n*d%2 != 0 {
			n++
		}
		g := gen.MustRandomRegular(rng, n, d)
		for _, skip := range []bool{false, true} {
			alg := core.RegularOdd{SkipPruning: skip}
			got, res, err := sim.RunToEdgeSet(g, alg)
			if err != nil {
				return false
			}
			if res.Rounds != alg.Rounds(d) {
				return false
			}
			want, err := local.RegularOdd(g, skip)
			if err != nil {
				return false
			}
			if !got.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGeneralMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch rng.Intn(3) {
		case 0:
			g = gen.RandomBoundedDegree(rng, 5+rng.Intn(14), 2+rng.Intn(5), 0.5)
		case 1:
			g = gen.RandomTree(rng, 2+rng.Intn(18))
		default:
			d := 2 + rng.Intn(4)
			n := d + 1 + rng.Intn(8)
			if n*d%2 != 0 {
				n++
			}
			g = gen.MustRandomRegular(rng, n, d)
		}
		delta := g.MaxDegree()
		if delta < 2 {
			delta = 2
		}
		// Sometimes run with slack between the true max degree and Δ.
		if rng.Intn(3) == 0 {
			delta += 1 + rng.Intn(3)
		}
		alg := core.NewGeneral(delta)
		got, res, err := sim.RunToEdgeSet(g, alg)
		if err != nil {
			return false
		}
		if res.Rounds != alg.Rounds(0) {
			return false
		}
		want, err := local.General(g, delta)
		if err != nil {
			return false
		}
		return got.Equal(want.D)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEnginesAgreeOnRealAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	graphs := []*graph.Graph{
		gen.MustRandomRegular(rng, 12, 3),
		gen.MustRandomRegular(rng, 10, 4),
		gen.RandomBoundedDegree(rng, 14, 5, 0.4),
		gen.Petersen(),
	}
	for _, g := range graphs {
		algs := []sim.Algorithm{core.PortOne{}, core.NewGeneral(g.MaxDegree())}
		if d, ok := g.Regular(); ok && d%2 == 1 {
			algs = append(algs, core.RegularOdd{})
		}
		for _, a := range algs {
			seq, err := sim.RunSequential(g, a)
			if err != nil {
				t.Fatalf("%s sequential: %v", a.Name(), err)
			}
			sh, err := sim.RunSharded(g, a, sim.WithShards(3))
			if err != nil {
				t.Fatalf("%s sharded: %v", a.Name(), err)
			}
			if !reflect.DeepEqual(seq.Outputs, sh.Outputs) {
				t.Errorf("%s: engines disagree", a.Name())
			}
		}
	}
}

func TestAllEdgesOnPerfectMatching(t *testing.T) {
	g := gen.PerfectMatching(5)
	d, res := runEdgeSet(t, g, core.AllEdges{})
	if res.Rounds != 0 {
		t.Errorf("Rounds = %d, want 0", res.Rounds)
	}
	if d.Count() != 5 {
		t.Errorf("selected %d edges, want all 5", d.Count())
	}
}

func TestGeneralNormalisesEvenDelta(t *testing.T) {
	a := core.NewGeneral(4)
	if a.Delta() != 5 {
		t.Errorf("Delta = %d, want 5 (A(2k) = A(2k+1))", a.Delta())
	}
	b := core.NewGeneral(5)
	if b.Delta() != 5 {
		t.Errorf("Delta = %d, want 5", b.Delta())
	}
}

func TestGeneralPanicsOnDeltaOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for Δ = 1")
		}
	}()
	core.NewGeneral(1)
}

func TestRegularOddOnSingleEdge(t *testing.T) {
	// d = 1: the perfect matching graph; the algorithm must select every
	// edge (ratio 1, the Δ=1 row of Table 1).
	g := gen.PerfectMatching(3)
	d, res := runEdgeSet(t, g, core.RegularOdd{})
	if d.Count() != 3 {
		t.Errorf("selected %d edges, want 3", d.Count())
	}
	if want := (core.RegularOdd{}).Rounds(1); res.Rounds != want {
		t.Errorf("Rounds = %d, want %d", res.Rounds, want)
	}
}
