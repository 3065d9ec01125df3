package core

import (
	"fmt"

	"eds/internal/sim"
)

// Messages are sim.Message words: 0 is the empty message, and every
// payload is a kind tag plus its fields, encoded and decoded only by the
// helpers below. The port-numbering model does not bound message size,
// but every protocol in the paper needs only a few bits per round: a
// mark, one flag, a (port, degree) label, or, for IDMatching, one node
// identifier — CONGEST-sized messages.
//
// Layout, low bit first:
//
//	label:  bit 0 = 1; port in bits 1–31, degree in bits 32–62
//	others: bits 0–7 = the kind (even, nonzero); a flag in bit 8, or an
//	        identifier in bits 8–38
//
// Ports and degrees of every graph.Graph are below 2^31, because its
// port offsets are int32; so are node indices, the identifiers
// IDMatching sends, on any graph of fewer than 2^31 nodes. Each field
// therefore fits 31 bits. The label's two fields leave room for a
// one-bit tag only, hence the odd tag; every other kind is an even low
// byte, so no kind decodes as another and no encoding is 0.

// msgKind is a message's tag.
type msgKind uint8

// The message kinds. kindLabel is the one-bit tag; the rest are even.
const (
	// kindLabel carries the sender's port and degree (Theorems 4 and 5,
	// round 0).
	kindLabel msgKind = 1
	// kindMark marks an edge as selected (Theorem 3).
	kindMark msgKind = 2 * iota
	// kindPropose opens the two-round processing of one distinguishable
	// edge in M_G(i,j); its flag reports whether the proposer is already
	// covered by the set under construction.
	kindPropose
	// kindRespond closes that processing; its flag is the joint "add"
	// decision.
	kindRespond
	// kindProbe opens the two-round pruning of one edge of D ∩ M_G(i,j)
	// in phase II of Theorem 4; its flag reports whether the probing
	// endpoint remains covered by D \ {e}.
	kindProbe
	// kindProbeRespond closes the pruning exchange; its flag is the joint
	// "remove" decision.
	kindProbeRespond
	// kindStatus broadcasts whether the sender is covered by the matching
	// M (phases II and III of Theorem 5).
	kindStatus
	// kindProposal is a matching proposal in the proposal-based
	// subroutines (phase II bipartite matching and phase III double-cover
	// 2-matching of Theorem 5, and VertexCover3).
	kindProposal
	// kindAnswer replies to a kindProposal; its flag is "accept".
	kindAnswer
	// kindID carries the sender's identifier (IDMatching).
	kindID
	// kindIDStatus reports the sender's matched flag (IDMatching).
	kindIDStatus
	// kindPoint is IDMatching's pointing proposal.
	kindPoint
)

var kindNames = [...]string{
	kindLabel:        "label",
	kindMark:         "mark",
	kindPropose:      "propose",
	kindRespond:      "respond",
	kindProbe:        "probe",
	kindProbeRespond: "probe-respond",
	kindStatus:       "status",
	kindProposal:     "proposal",
	kindAnswer:       "answer",
	kindID:           "id",
	kindIDStatus:     "id-status",
	kindPoint:        "point",
}

func (k msgKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindName names the kind of m, one of the tags the algorithms of this
// package send; it is the naming function their traces count by:
// sim.NewTrace(core.KindName).
func KindName(m sim.Message) string { return kindOf(m).String() }

const (
	tagBits   = 8 // the low byte of every kind but kindLabel
	flagBit   = 1 << tagBits
	fieldBits = 31
	fieldMask = 1<<fieldBits - 1 // the largest field value, 2^31 − 1
)

// kindOf returns m's tag; the empty message has kind 0.
func kindOf(m sim.Message) msgKind {
	if m&1 != 0 {
		return kindLabel
	}
	return msgKind(m)
}

// tagMsg encodes a kind with no fields (kindMark, kindProposal,
// kindPoint).
func tagMsg(k msgKind) sim.Message { return sim.Message(k) }

// flagMsg encodes a kind carrying one flag.
func flagMsg(k msgKind, f bool) sim.Message {
	if f {
		return sim.Message(k) | flagBit
	}
	return sim.Message(k)
}

// flagOf decodes the flag of a flagMsg.
func flagOf(m sim.Message) bool { return m&flagBit != 0 }

// labelMsg encodes the sender's port number and its degree. Both fields
// are in [0, 2^31).
func labelMsg(port, deg int) sim.Message {
	return sim.Message(kindLabel) | sim.Message(port&fieldMask)<<1 | sim.Message(deg&fieldMask)<<(1+fieldBits)
}

// labelOf decodes a labelMsg.
func labelOf(m sim.Message) (port, deg int) {
	return int(m>>1) & fieldMask, int(m>>(1+fieldBits)) & fieldMask
}

// idMsg encodes a node identifier in [0, 2^31).
func idMsg(id int) sim.Message { return sim.Message(kindID) | sim.Message(id&fieldMask)<<tagBits }

// idOf decodes an idMsg.
func idOf(m sim.Message) int { return int(m>>tagBits) & fieldMask }
