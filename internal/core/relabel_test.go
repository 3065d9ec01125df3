package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/ratio"
	"eds/internal/sim"
	"eds/internal/verify"
)

// TestPortNumberingAdversaryQuick sweeps many random port numberings of
// the same topologies: the algorithms must stay feasible and within
// their guarantee for every numbering — the central promise of the
// port-numbering model. The optimum is numbering-independent, so it is
// computed once per topology.
func TestPortNumberingAdversaryQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Pick a topology.
		var g = gen.Petersen()
		switch rng.Intn(3) {
		case 0:
			g = gen.Petersen() // 3-regular
		case 1:
			g = gen.MustRandomRegular(rng, 12, 3)
		default:
			g = gen.MustRandomRegular(rng, 10, 4)
		}
		opt := verify.MinimumMaximalMatching(g).Count()
		d, _ := g.Regular()
		var alg sim.Algorithm
		var bound ratio.R
		if d%2 == 1 {
			alg = core.RegularOdd{}
			bound = ratio.OddRegularBound(d)
		} else {
			alg = core.PortOne{}
			bound = ratio.EvenRegularBound(d)
		}
		// Sweep several adversarial numberings of the same topology.
		for trial := 0; trial < 4; trial++ {
			h := gen.RelabelPorts(rng, g)
			res, err := sim.RunSequential(h, alg)
			if err != nil {
				return false
			}
			out := res.Outputs
			if !verify.IsEdgeDominatingSet(h, out) {
				return false
			}
			measured := ratio.New(int64(out.Count()), int64(opt))
			if !measured.LessEq(bound) {
				return false
			}
			// A(Δ) must hold its bound under the same numbering too.
			gAlg := core.NewGeneral(d)
			res, err = sim.RunSequential(h, gAlg)
			if err != nil {
				return false
			}
			out2 := res.Outputs
			if !verify.IsEdgeDominatingSet(h, out2) {
				return false
			}
			m2 := ratio.New(int64(out2.Count()), int64(opt))
			if !m2.LessEq(ratio.BoundedDegreeBound(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
