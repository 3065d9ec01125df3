package core

import (
	"eds/internal/sim"
)

// pairState is the node state shared by the protocols built on
// distinguishable edges (Theorems 4 and 5): the label-exchange results,
// the distinguishable port, and the per-port membership flags of the set
// under construction. The slices are carved from the engine's
// StateArena by init, so a slab of pairStates costs no per-node
// allocations.
type pairState struct {
	deg     int
	peer    []int // peer port number per own port
	peerDeg []int // neighbour degree per own port
	dp      int   // own port of the distinguishable edge, 0 if none
	dpPeer  int   // peer port of the distinguishable edge
	inSet   []bool

	gotProposal bool
	propCovered bool
	gotProbe    bool
	probeOther  bool
}

func (st *pairState) init(deg int, arena *sim.StateArena) {
	st.deg = deg
	st.peer = arena.Ints(deg)
	st.peerDeg = arena.Ints(deg)
	st.inSet = arena.Bools(deg)
}

func (st *pairState) covered() bool {
	for _, in := range st.inSet {
		if in {
			return true
		}
	}
	return false
}

func (st *pairState) degInSet() int {
	c := 0
	for _, in := range st.inSet {
		if in {
			c++
		}
	}
	return c
}

// The step builders below are parametric in the program's state type S,
// reached through a pair accessor: RegularOdd runs them on a bare
// pairState, General on the pairState embedded in its own state. The
// accessor is resolved once per program build, not per node.

// labelExchangeStep is the common first round: every node tells each
// neighbour through which port it is talking to it and what its degree
// is. Both endpoints of every edge learn the edge's label pair, so the
// distinguishable port follows locally (Section 5).
func labelExchangeStep[S any](pair func(*S) *pairState) pstep[S] {
	return pstep[S]{
		send: func(s *S, buf []sim.Message) {
			st := pair(s)
			for idx := range buf {
				buf[idx] = labelMsg(idx+1, st.deg)
			}
		},
		recv: func(s *S, inbox []sim.Message) {
			st := pair(s)
			for idx, m := range inbox {
				st.peer[idx], st.peerDeg[idx] = labelOf(m)
			}
			st.dp, st.dpPeer, _ = DistinguishFromPeers(st.peer)
		},
	}
}

// addRule decides whether a processed distinguishable edge joins the set,
// given the two endpoints' covered flags.
type addRule func(coveredProposer, coveredResponder bool) bool

// addUnlessBothCovered is the Theorem 4 phase I rule: D grows into an
// edge cover ("if both endpoints of e are already covered by D, we ignore
// e, otherwise we add e to D").
func addUnlessBothCovered(p, r bool) bool { return !(p && r) }

// addOnlyIfNeitherCovered is the Theorem 5 phase I rule: M stays a
// matching ("if neither u nor v is covered by M, we add e to M").
func addOnlyIfNeitherCovered(p, r bool) bool { return !p && !r }

// phaseIAddSteps processes the pair (i,j): the proposer is a node whose
// distinguishable edge runs from its port i to the peer's port j. Two
// rounds: propose carrying the proposer's covered flag, respond carrying
// the joint decision. When i == j the edge may be proposed from both
// sides at once; the rule is symmetric, so both sides decide identically
// and the updates are idempotent. By Lemma 2 the processed edges form a
// matching, making the parallel decisions independent. Nodes whose
// degree is below the pair indices sit the rounds out via the runtime
// guards, so one compiled schedule serves a whole degree class.
func phaseIAddSteps[S any](pair func(*S) *pairState, i, j int, rule addRule) []pstep[S] {
	propose := pstep[S]{
		send: func(s *S, buf []sim.Message) {
			st := pair(s)
			if st.dp != i || st.dpPeer != j {
				return
			}
			buf[i-1] = flagMsg(kindPropose, st.covered())
		},
		recv: func(s *S, inbox []sim.Message) {
			st := pair(s)
			st.gotProposal = false
			if j <= st.deg {
				if m := inbox[j-1]; kindOf(m) == kindPropose {
					st.gotProposal = true
					st.propCovered = flagOf(m)
				}
			}
		},
	}
	respond := pstep[S]{
		send: func(s *S, buf []sim.Message) {
			st := pair(s)
			if !st.gotProposal {
				return
			}
			add := rule(st.propCovered, st.covered())
			buf[j-1] = flagMsg(kindRespond, add)
			if add {
				st.inSet[j-1] = true
			}
		},
		recv: func(s *S, inbox []sim.Message) {
			st := pair(s)
			if st.dp == i && st.dpPeer == j {
				if m := inbox[i-1]; kindOf(m) == kindRespond && flagOf(m) {
					st.inSet[i-1] = true
				}
			}
			st.gotProposal = false
		},
	}
	return []pstep[S]{propose, respond}
}

// phaseIIPruneSteps processes D ∩ M_G(i,j) in phase II of Theorem 4: the
// proposer probes its distinguishable edge if the edge is still in D,
// both endpoints report whether they stay covered without it, and the
// edge is removed exactly when both do.
func phaseIIPruneSteps[S any](pair func(*S) *pairState, i, j int) []pstep[S] {
	probe := pstep[S]{
		send: func(s *S, buf []sim.Message) {
			st := pair(s)
			if st.dp != i || st.dpPeer != j || !st.inSet[i-1] {
				return
			}
			buf[i-1] = flagMsg(kindProbe, st.degInSet() >= 2)
		},
		recv: func(s *S, inbox []sim.Message) {
			st := pair(s)
			st.gotProbe = false
			if j <= st.deg {
				if m := inbox[j-1]; kindOf(m) == kindProbe {
					st.gotProbe = true
					st.probeOther = flagOf(m)
				}
			}
		},
	}
	respond := pstep[S]{
		send: func(s *S, buf []sim.Message) {
			st := pair(s)
			if !st.gotProbe {
				return
			}
			remove := st.probeOther && st.degInSet() >= 2
			buf[j-1] = flagMsg(kindProbeRespond, remove)
			if remove {
				st.inSet[j-1] = false
			}
		},
		recv: func(s *S, inbox []sim.Message) {
			st := pair(s)
			if st.dp == i && st.dpPeer == j {
				if m := inbox[i-1]; kindOf(m) == kindProbeRespond && flagOf(m) {
					st.inSet[i-1] = false
				}
			}
			st.gotProbe = false
		},
	}
	return []pstep[S]{probe, respond}
}
