package core

import (
	"fmt"

	"eds/internal/graph"
	"eds/internal/sim"
)

// VertexCover3 is the Polishchuk–Suomela local 3-approximation of a
// minimum vertex cover (reference [21] of the paper) — the algorithm
// whose double-cover 2-matching is reused as phase III of Theorem 5.
// Implemented here as an extension, it demonstrates the node-based
// covering problem the paper contrasts edge dominating sets with.
//
// The protocol is the phase III proposal scheme run on the whole graph:
// every node proposes along its ports in increasing order until one
// proposal is accepted, and accepts the first incoming proposal of its
// life. Accepted proposals form a 2-matching P that dominates every
// edge; a node joins the cover exactly when it is covered by P, and its
// output X(v) lists its P-ports (so the cover is the set of nodes with
// non-empty output). The cover has at most 3 times the minimum size, and
// the bound is tight in the port-numbering model.
//
// Delta bounds the maximum degree; it fixes the uniform round schedule
// (2Δ rounds).
type VertexCover3 struct {
	Delta int
}

var _ sim.Algorithm = VertexCover3{}

// Name implements sim.Algorithm.
func (a VertexCover3) Name() string { return fmt.Sprintf("vertexcover3(Δ=%d)", a.Delta) }

// Rounds returns the schedule length: 2Δ.
func (a VertexCover3) Rounds(int) int { return 2 * a.Delta }

// BuildNodes implements sim.Algorithm.
func (a VertexCover3) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	prog := vertexCover3Program(a.Name(), a.Delta)
	buildProgNodes(g, lo, hi, arena, nodes, func(int) *program[generalState] { return prog })
}

// vertexCover3Program compiles (once per Δ) the 2Δ-round proposal
// schedule. It reuses the phase III machinery of Theorem 5 on the full
// generalState; the phase I/II fields simply stay at their zero values.
func vertexCover3Program(kind string, delta int) *program[generalState] {
	if delta < 1 {
		panic(fmt.Sprintf("core: VertexCover3 needs Δ >= 1, got %d", delta))
	}
	return cachedProgram(kind, 0, func() *program[generalState] {
		p := &program[generalState]{
			init: func(st *generalState, deg int, arena *sim.StateArena) {
				initGeneralState(st, deg, arena)
				// Every port is eligible: the 2-matching is computed on the
				// whole graph, not on an M-uncovered subgraph.
				for idx := 0; idx < deg; idx++ {
					st.eligible = append(st.eligible, idx)
				}
			},
			output: func(st *generalState, buf []sim.Message) {
				markChosen(buf, st.inP)
			},
		}
		for c := 0; c < delta; c++ {
			p.steps = append(p.steps, phaseIIIProposeStep(), phaseIIIAnswerStep())
		}
		return p
	})
}
