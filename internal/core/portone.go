package core

import (
	"eds/internal/graph"
	"eds/internal/sim"
)

// PortOne is the Theorem 3 algorithm: output all edges that are connected
// to a port with port number 1. It runs in exactly one communication
// round and achieves factor 4 - 2/d on d-regular graphs, which is optimal
// for even d (Theorem 1).
//
// The selected set D covers every node (each node's port-1 edge is in D),
// so D is an edge cover and therefore an edge dominating set. Since each
// node contributes at most one port-1 edge, |D| <= |V|.
type PortOne struct{}

var _ sim.Algorithm = PortOne{}

// Name implements sim.Algorithm.
func (PortOne) Name() string { return "portone" }

// Rounds returns the round count of the algorithm: always 1.
func (PortOne) Rounds(int) int { return 1 }

// portOneState is one node's flag vector of chosen ports.
type portOneState struct {
	chosen []bool
}

// BuildNodes implements sim.Algorithm.
func (a PortOne) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	prog := portOneProgram(a.Name())
	buildProgNodes(g, lo, hi, arena, nodes, func(int) *program[portOneState] { return prog })
}

// portOneProgram compiles the single mark round. The schedule is
// degree-independent (isolated nodes just see an empty buffer), so one
// program serves every node.
func portOneProgram(kind string) *program[portOneState] {
	return cachedProgram(kind, 0, func() *program[portOneState] {
		return &program[portOneState]{
			init: func(st *portOneState, deg int, arena *sim.StateArena) {
				st.chosen = arena.Bools(deg)
			},
			steps: []pstep[portOneState]{{
				send: func(st *portOneState, buf []sim.Message) {
					if len(buf) >= 1 {
						buf[0] = tagMsg(kindMark)
					}
				},
				recv: func(st *portOneState, inbox []sim.Message) {
					if len(inbox) >= 1 {
						st.chosen[0] = true
					}
					for idx, m := range inbox {
						if kindOf(m) == kindMark {
							st.chosen[idx] = true
						}
					}
				},
			}},
			output: func(st *portOneState, _ int, dst []int) []int {
				return appendChosen(dst, st.chosen)
			},
		}
	})
}

// AllEdges is the trivial algorithm that selects every edge, with no
// communication at all. For graphs of maximum degree 1 it is exactly
// optimal (the Δ = 1 row of Table 1): every edge of a perfect matching
// must be in any edge dominating set.
type AllEdges struct{}

var _ sim.Algorithm = AllEdges{}

// Name implements sim.Algorithm.
func (AllEdges) Name() string { return "alledges" }

// Rounds returns the round count of the algorithm: always 0.
func (AllEdges) Rounds(int) int { return 0 }

// BuildNodes implements sim.Algorithm.
func (a AllEdges) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	prog := allEdgesProgram(a.Name())
	buildProgNodes(g, lo, hi, arena, nodes, func(int) *program[struct{}] { return prog })
}

// allEdgesProgram compiles the empty schedule: born done, every port
// chosen.
func allEdgesProgram(kind string) *program[struct{}] {
	return cachedProgram(kind, 0, func() *program[struct{}] {
		return &program[struct{}]{
			output: func(_ *struct{}, deg int, dst []int) []int {
				for i := 1; i <= deg; i++ {
					dst = append(dst, i)
				}
				return dst
			},
		}
	})
}
