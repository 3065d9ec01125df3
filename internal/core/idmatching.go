package core

import (
	"eds/internal/graph"
	"eds/internal/sim"
)

// IDMatching is a deterministic distributed maximal matching for networks
// *with unique node identifiers* — the model extension of Section 1.3 of
// the paper. Every maximal matching 2-approximates the minimum edge
// dominating set, so with IDs the adversarial constructions lose their
// power: the ratio collapses from 4-Θ(1/d) to at most 2 even without
// randomness. This pins the blame for the paper's lower bounds on
// anonymity rather than determinism.
//
// Protocol (repeated 2-round phases after one ID-exchange round):
//
//	status — every active node reports whether it is matched; silence
//	         (a stopped node) counts as matched.
//	point  — every unmatched node points at its smallest-ID unmatched
//	         neighbour (ties by port number); mutually pointing nodes
//	         match when the points arrive.
//
// The globally smallest-ID-pair edge among unmatched nodes is always
// mutual, so at least one edge matches per phase and the algorithm
// terminates in O(n) phases (typically far fewer). A node stops once it
// is matched and has announced it, or when no unmatched neighbours
// remain. Unlike the paper's algorithms the running time necessarily
// depends on n — that dependence is exactly what Section 1.3 discusses.
//
// Every node's identifier is its node index: the "IDs exist"
// assumption, made concrete.
type IDMatching struct{}

var _ sim.Algorithm = IDMatching{}

// Name implements sim.Algorithm.
func (IDMatching) Name() string { return "idmatching" }

// BuildNodes implements sim.Algorithm: the range shares one value slab
// and the shard's arena, and every node's identifier is its node index,
// so all shards can build at once.
func (IDMatching) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	slab := make([]idNode, hi-lo)
	for i := range slab {
		v := lo + i
		deg := g.Deg(v)
		slab[i] = idNode{id: v, deg: deg, nbrID: arena.Ints(deg),
			nbrMatched: arena.Bools(deg), pointedAt: -1, matchedPort: -1}
		nodes[i] = &slab[i]
	}
}

type idNode struct {
	id, deg     int
	nbrID       []int
	nbrMatched  []bool
	pointedAt   int // 0-based port pointed at this phase, -1 if none
	matchedPort int // 0-based port of the matching edge, -1 if unmatched
	announced   bool
	done        bool
	round       int
}

var _ sim.Node = (*idNode)(nil)

func (n *idNode) matched() bool { return n.matchedPort >= 0 }

// hasActiveNeighbour reports whether any neighbour is still unmatched.
func (n *idNode) hasActiveNeighbour() bool {
	for _, m := range n.nbrMatched {
		if !m {
			return true
		}
	}
	return false
}

// SendInto implements sim.Node, writing the round's messages straight
// into the engine-owned buffer. Every message, the ID included,
// is one word, so no round allocates.
func (n *idNode) SendInto(round int, buf []sim.Message) {
	switch {
	case n.round == 0:
		m := idMsg(n.id)
		for i := range buf {
			buf[i] = m
		}
	case (n.round-1)%2 == 0: // status
		m := flagMsg(kindIDStatus, n.matched())
		for i := range buf {
			buf[i] = m
		}
	default: // point
		n.pointedAt = -1
		if !n.matched() {
			best := -1
			for idx := 0; idx < n.deg; idx++ {
				if n.nbrMatched[idx] {
					continue
				}
				if best == -1 || n.nbrID[idx] < n.nbrID[best] {
					best = idx
				}
			}
			if best >= 0 {
				n.pointedAt = best
				buf[best] = tagMsg(kindPoint)
			}
		}
	}
}

func (n *idNode) Receive(round int, inbox []sim.Message) {
	switch {
	case n.round == 0:
		for idx, m := range inbox {
			n.nbrID[idx] = idOf(m)
		}
	case (n.round-1)%2 == 0: // status
		for idx, m := range inbox {
			if kindOf(m) == kindIDStatus {
				n.nbrMatched[idx] = flagOf(m)
			} else {
				// Silence: the neighbour has stopped, hence is matched
				// or has no prospects; either way it is unavailable.
				n.nbrMatched[idx] = true
			}
		}
		if n.matched() && n.announced {
			n.done = true
		}
		if n.matched() {
			n.announced = true
		}
		if !n.matched() && !n.hasActiveNeighbour() {
			n.done = true
		}
	default: // point + resolve: the points sent this round arrive now
		if n.pointedAt >= 0 {
			if kindOf(inbox[n.pointedAt]) == kindPoint {
				n.matchedPort = n.pointedAt
			}
		}
		n.pointedAt = -1
	}
	n.round++
}

func (n *idNode) Done() bool { return n.done }

// AppendOutput implements sim.Node.
func (n *idNode) AppendOutput(dst []int) []int {
	if n.matchedPort >= 0 {
		return append(dst, n.matchedPort+1)
	}
	return dst
}
