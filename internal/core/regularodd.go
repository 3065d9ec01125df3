package core

import (
	"eds/internal/graph"
	"eds/internal/sim"
)

// RegularOdd is the Theorem 4 algorithm for d-regular graphs with odd d:
//
//	Phase I  — for each pair (i,j) in row-major order, process the
//	           distinguishable edges of M_G(i,j) in parallel: add e to D
//	           unless both endpoints are already covered by D. This builds
//	           a spanning forest that is also an edge cover (Lemma 1
//	           guarantees every odd-degree node has a distinguishable
//	           edge).
//	Phase II — for each pair (i,j) again, remove e ∈ D ∩ M_G(i,j) when
//	           both endpoints remain covered by D \ {e}. Afterwards D is a
//	           forest of node-disjoint stars, hence |D| <= d|V|/(d+1).
//
// The approximation factor is 4 - 6/(d+1), optimal by Theorem 2. The
// round schedule is 1 + 4d² (label exchange plus two rounds per pair per
// phase), derived purely from the node's own degree.
//
// SkipPruning disables phase II; the result is still a feasible edge
// cover but only guarantees |D| <= |V|, i.e. factor 4 - 2/d. It exists to
// measure what the pruning phase buys (the Ext-A ablation).
type RegularOdd struct {
	SkipPruning bool
}

var _ sim.Algorithm = RegularOdd{}

// Name implements sim.Algorithm.
func (a RegularOdd) Name() string {
	if a.SkipPruning {
		return "regularodd-nopruning"
	}
	return "regularodd"
}

// Rounds returns the round count on a d-regular graph.
func (a RegularOdd) Rounds(d int) int {
	if a.SkipPruning {
		return 1 + 2*d*d
	}
	return 1 + 4*d*d
}

// BuildNodes implements sim.Algorithm: the whole node range shares
// one value slab and the shard's arena, with one compiled program per
// degree class.
func (a RegularOdd) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	name, skip := a.Name(), a.SkipPruning
	buildProgNodes(g, lo, hi, arena, nodes, func(deg int) *program[pairState] {
		return regularOddProgram(name, deg, skip)
	})
}

// regularOddProgram compiles (once per degree) the Theorem 4 schedule:
// label exchange, then two rounds per (i,j) pair for phase I, and — with
// pruning — two more per pair for phase II. The schedule is derived
// purely from the node's own degree, so degree is the cache key.
func regularOddProgram(kind string, degree int, skipPruning bool) *program[pairState] {
	return cachedProgram(kind, degree, func() *program[pairState] {
		self := func(st *pairState) *pairState { return st }
		p := &program[pairState]{
			init: func(st *pairState, deg int, arena *sim.StateArena) {
				st.init(deg, arena)
			},
			output: func(st *pairState, _ int, dst []int) []int {
				return appendChosen(dst, st.inSet)
			},
		}
		p.steps = append(p.steps, labelExchangeStep(self))
		for i := 1; i <= degree; i++ {
			for j := 1; j <= degree; j++ {
				p.steps = append(p.steps, phaseIAddSteps(self, i, j, addUnlessBothCovered)...)
			}
		}
		if !skipPruning {
			for i := 1; i <= degree; i++ {
				for j := 1; j <= degree; j++ {
					p.steps = append(p.steps, phaseIIPruneSteps(self, i, j)...)
				}
			}
		}
		return p
	})
}
