package core

import (
	"fmt"

	"eds/internal/graph"
	"eds/internal/sim"
)

// General is the Theorem 5 family A(Δ) for graphs of maximum degree Δ.
// Given Δ = 2k+1 (an even parameter is promoted to the next odd one,
// exactly as the paper sets A(2k) = A(2k+1)), the algorithm builds two
// node-disjoint edge sets and outputs their union D = M ∪ P:
//
//	Phase I   — a greedy matching M over the distinguishable-edge
//	            matchings M_G(i,j), processed pair by pair: add e when
//	            neither endpoint is covered by M. Afterwards every
//	            odd-degree node is covered by M or adjacent to a covered
//	            node (property b).
//	Phase II  — for i = 2..Δ: a maximal matching M_i on the bipartite
//	            graph B_i of edges {u,v} with deg(u) < deg(v) = i and
//	            both endpoints M-uncovered, via port-ordered proposals
//	            from the degree-i side; M grows by M_i. Afterwards every
//	            surviving uncovered edge joins equal-degree endpoints
//	            (property c).
//	Phase III — on the subgraph H of edges with both endpoints
//	            M-uncovered, a 2-matching P dominating H: simultaneous
//	            port-ordered proposals, each node accepting at most one
//	            incoming proposal and retiring after one accepted
//	            outgoing proposal — a maximal matching on the bipartite
//	            double cover of H mapped back to H (Polishchuk–Suomela).
//
// The approximation factor is 4 - 1/k for max degree in {2k, 2k+1},
// optimal by Corollary 1; the round schedule depends only on Δ, so one
// compiled program serves every node of a run regardless of degree.
type General struct {
	delta int // normalised: odd, >= 3
}

var _ sim.Algorithm = General{}

// NewGeneral returns A(Δ) for graphs of maximum degree at most Δ. It
// panics if delta < 2; use AllEdges for Δ = 1.
func NewGeneral(delta int) General {
	if delta < 2 {
		panic(fmt.Sprintf("core: General needs Δ >= 2, got %d (use AllEdges for Δ = 1)", delta))
	}
	if delta%2 == 0 {
		delta++ // A(2k) = A(2k+1)
	}
	return General{delta: delta}
}

// Name implements sim.Algorithm.
func (a General) Name() string { return fmt.Sprintf("general(Δ=%d)", a.delta) }

// Delta returns the normalised (odd) family parameter.
func (a General) Delta() int { return a.delta }

// Rounds returns the full round schedule length for the family parameter:
// 1 label-exchange round, 2Δ² phase I rounds, Σ_{i=2..Δ} (1+2i) phase II
// rounds, and 1+2Δ phase III rounds.
func (a General) Rounds(int) int {
	d := a.delta
	total := 1 + 2*d*d
	for i := 2; i <= d; i++ {
		total += 1 + 2*i
	}
	total += 1 + 2*d
	return total
}

// generalState carries the mutable per-node state across the phases.
// Every slice is arena-carved by initGeneralState; the two scratch
// lists hold at most one entry per port, so their capacity is the
// degree and every proposal round is allocation-free.
type generalState struct {
	pairState         // phase I machinery; inSet = membership in M
	inP        []bool // phase III membership
	nbrCovered []bool // neighbour M-coverage, refreshed by status rounds

	// Phase II (black role) per-iteration state.
	eligible []int // 0-based ports to propose on, in increasing order
	ptr      int
	matched  bool

	// Shared proposal bookkeeping.
	proposedPort  int   // 0-based port proposed on this cycle, -1 if none
	proposalPorts []int // 0-based ports that carried proposals this cycle

	// Phase III state.
	sentAccepted     bool
	acceptedIncoming bool
}

func initGeneralState(st *generalState, deg int, arena *sim.StateArena) {
	st.pairState.init(deg, arena)
	st.inP = arena.Bools(deg)
	st.nbrCovered = arena.Bools(deg)
	st.eligible = arena.Ints(deg)[:0]
	st.proposalPorts = arena.Ints(deg)[:0]
	st.proposedPort = -1
}

// generalPair is the embedded-pairState accessor the shared Theorem 4/5
// step builders hook into.
func generalPair(st *generalState) *pairState { return &st.pairState }

// BuildNodes implements sim.Algorithm: one shared program (the
// schedule depends only on Δ), one node slab, state carved from the
// shard's arena.
func (a General) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	prog := generalProgram(a.Name(), a.delta)
	buildProgNodes(g, lo, hi, arena, nodes, func(int) *program[generalState] { return prog })
}

// generalProgram compiles (once per Δ) the full A(Δ) schedule. Every
// step guards on the node's runtime degree, so nodes of every degree
// share the one program and stay on the common global round schedule.
func generalProgram(kind string, delta int) *program[generalState] {
	return cachedProgram(kind, 0, func() *program[generalState] {
		p := &program[generalState]{
			init: initGeneralState,
			output: func(st *generalState, deg int, dst []int) []int {
				for idx := 0; idx < deg; idx++ {
					if st.inSet[idx] || st.inP[idx] {
						dst = append(dst, idx+1)
					}
				}
				return dst
			},
		}
		p.steps = append(p.steps, labelExchangeStep(generalPair))
		// Phase I: all pairs over the family parameter so every node stays
		// on the same global schedule regardless of its own degree.
		for i := 1; i <= delta; i++ {
			for j := 1; j <= delta; j++ {
				p.steps = append(p.steps, phaseIAddSteps(generalPair, i, j, addOnlyIfNeitherCovered)...)
			}
		}
		// Phase II: degree-stratified bipartite maximal matchings.
		for i := 2; i <= delta; i++ {
			p.steps = append(p.steps, phaseIIStatusStep(i))
			for c := 0; c < i; c++ {
				p.steps = append(p.steps, phaseIIProposeStep(), phaseIIAnswerStep())
			}
		}
		// Phase III: the 2-matching on the M-uncovered subgraph.
		p.steps = append(p.steps, phaseIIIStatusStep())
		for c := 0; c < delta; c++ {
			p.steps = append(p.steps, phaseIIIProposeStep(), phaseIIIAnswerStep())
		}
		return p
	})
}

// phaseIIStatusStep opens iteration i of phase II: everyone broadcasts
// its M-coverage; a node of degree exactly i that is uncovered becomes
// black and lists its eligible white neighbours (smaller degree,
// uncovered) in increasing port order.
func phaseIIStatusStep(i int) pstep[generalState] {
	return pstep[generalState]{
		send: statusBroadcast,
		recv: func(st *generalState, inbox []sim.Message) {
			recordStatus(st, inbox)
			st.eligible = st.eligible[:0]
			st.ptr = 0
			st.matched = false
			if st.deg != i || st.covered() {
				return
			}
			for idx := 0; idx < st.deg; idx++ {
				if st.peerDeg[idx] < i && !st.nbrCovered[idx] {
					st.eligible = append(st.eligible, idx)
				}
			}
		},
	}
}

// phaseIIProposeStep: every live black node proposes to its next eligible
// white neighbour.
func phaseIIProposeStep() pstep[generalState] {
	return pstep[generalState]{
		send: func(st *generalState, buf []sim.Message) {
			st.proposedPort = -1
			if st.matched || st.ptr >= len(st.eligible) {
				return
			}
			st.proposedPort = st.eligible[st.ptr]
			buf[st.proposedPort] = tagMsg(kindProposal)
		},
		recv: collectProposals,
	}
}

// phaseIIAnswerStep: every white node answers the proposals it has just
// received — accepting the one on its smallest port if it is still
// unmatched in M, rejecting everything else — and the black nodes act on
// the answers. A white that got matched in an earlier cycle of this
// iteration is covered by M and must reject.
func phaseIIAnswerStep() pstep[generalState] {
	return pstep[generalState]{
		send: func(st *generalState, buf []sim.Message) {
			if st.covered() {
				rejectAll(st, buf)
				return
			}
			answerProposals(st, buf, func(accepted int) {
				st.inSet[accepted] = true
			})
		},
		recv: func(st *generalState, inbox []sim.Message) {
			if st.proposedPort < 0 {
				return
			}
			if m := inbox[st.proposedPort]; kindOf(m) == kindAnswer {
				if flagOf(m) {
					st.inSet[st.proposedPort] = true
					st.matched = true
				} else {
					st.ptr++
				}
			}
			st.proposedPort = -1
		},
	}
}

// phaseIIIStatusStep opens phase III: everyone broadcasts M-coverage; an
// uncovered node lists the incident H-edges (both endpoints uncovered).
func phaseIIIStatusStep() pstep[generalState] {
	return pstep[generalState]{
		send: statusBroadcast,
		recv: func(st *generalState, inbox []sim.Message) {
			recordStatus(st, inbox)
			st.eligible = st.eligible[:0]
			st.ptr = 0
			if st.covered() {
				return
			}
			for idx := 0; idx < st.deg; idx++ {
				if !st.nbrCovered[idx] {
					st.eligible = append(st.eligible, idx)
				}
			}
		},
	}
}

// phaseIIIProposeStep: every H-node that has not had a proposal accepted
// yet proposes along its next H-port.
func phaseIIIProposeStep() pstep[generalState] {
	return pstep[generalState]{
		send: func(st *generalState, buf []sim.Message) {
			st.proposedPort = -1
			if st.covered() || st.sentAccepted || st.ptr >= len(st.eligible) {
				return
			}
			st.proposedPort = st.eligible[st.ptr]
			buf[st.proposedPort] = tagMsg(kindProposal)
		},
		recv: collectProposals,
	}
}

// phaseIIIAnswerStep: each H-node accepts the first incoming proposal of
// its life (smallest port this cycle) and rejects all others; proposers
// act on the answers. Accepted edges form the 2-matching P.
func phaseIIIAnswerStep() pstep[generalState] {
	return pstep[generalState]{
		send: func(st *generalState, buf []sim.Message) {
			if st.acceptedIncoming {
				rejectAll(st, buf)
				return
			}
			answerProposals(st, buf, func(accepted int) {
				st.inP[accepted] = true
				st.acceptedIncoming = true
			})
		},
		recv: func(st *generalState, inbox []sim.Message) {
			if st.proposedPort < 0 {
				return
			}
			if m := inbox[st.proposedPort]; kindOf(m) == kindAnswer {
				if flagOf(m) {
					st.inP[st.proposedPort] = true
					st.sentAccepted = true
				} else {
					st.ptr++
				}
			}
			st.proposedPort = -1
		},
	}
}

// statusBroadcast sends the node's M-coverage flag on every port.
func statusBroadcast(st *generalState, buf []sim.Message) {
	m := flagMsg(kindStatus, st.covered())
	for idx := range buf {
		buf[idx] = m
	}
}

// recordStatus stores the neighbours' coverage flags.
func recordStatus(st *generalState, inbox []sim.Message) {
	for idx, m := range inbox {
		if kindOf(m) == kindStatus {
			st.nbrCovered[idx] = flagOf(m)
		}
	}
}

// collectProposals notes which ports carried proposals this cycle,
// reusing nbr bookkeeping in proposalPorts.
func collectProposals(st *generalState, inbox []sim.Message) {
	st.proposalPorts = st.proposalPorts[:0]
	for idx, m := range inbox {
		if kindOf(m) == kindProposal {
			st.proposalPorts = append(st.proposalPorts, idx)
		}
	}
}

// answerProposals accepts the smallest-port proposal (invoking onAccept
// with the 0-based port) and rejects the rest, writing the answers into
// the round's send buffer. With no proposals it sends nothing.
func answerProposals(st *generalState, buf []sim.Message, onAccept func(accepted int)) {
	if len(st.proposalPorts) == 0 {
		return
	}
	accepted := st.proposalPorts[0] // smallest port: inbox scanned in order
	onAccept(accepted)
	buf[accepted] = flagMsg(kindAnswer, true)
	for _, idx := range st.proposalPorts[1:] {
		buf[idx] = flagMsg(kindAnswer, false)
	}
}

// rejectAll rejects every proposal received this cycle.
func rejectAll(st *generalState, buf []sim.Message) {
	if len(st.proposalPorts) == 0 {
		return
	}
	for _, idx := range st.proposalPorts {
		buf[idx] = flagMsg(kindAnswer, false)
	}
}
