// Zerocopy: writing a custom algorithm on the BufferedNode fast path.
//
// The paper's algorithms ship pre-migrated, but the zero-allocation
// machinery is open to user algorithms too: implement the optional
// eds.BufferedNode interface and the engines write your messages
// straight into their pooled flat outbox — no per-round []Message,
// nothing for the garbage collector to chase while the rounds run. A
// message is one uint64 word (0 means "no message"), so writing one
// never allocates; only the legacy Send contract's fresh slice per
// round does. This example defines a toy multi-round protocol both
// ways and measures the difference with testing.AllocsPerRun: the
// buffered variant's allocation count is independent of the round
// count.
package main

import (
	"fmt"
	"log"
	"testing"

	"eds"
)

// beat is the heartbeat message. Any nonzero word is a message; a
// protocol with several kinds would reserve a few tag bits and pack its
// fields above them, as the paper's algorithms do in internal/core.
const beat eds.Message = 1

// pulse is a deliberately minimal custom algorithm — every node
// broadcasts a heartbeat on all ports for a fixed number of rounds,
// counts what it hears, and selects no edges. Its only purpose is to
// show the two-method upgrade from Node to BufferedNode.
type pulse struct {
	rounds   int
	buffered bool
}

func (p pulse) Name() string { return fmt.Sprintf("pulse(%d)", p.rounds) }

func (p pulse) NewNode(degree int) eds.Node {
	n := &pulseNode{deg: degree, left: p.rounds}
	if p.buffered {
		return n // *pulseNode: has SendInto, engines take the fast path
	}
	return legacyOnly{n} // wrapper hides SendInto: engines fall back to Send
}

type pulseNode struct {
	deg   int
	left  int
	heard int
}

// SendInto is the fast path: write into the engine-owned buffer and
// keep nothing. buf arrives all-zero with exactly deg slots; slots left
// 0 mean "no message on that port". Retaining buf is a bug — the
// engine rewrites it every round and pools it across runs — and the
// outboxalias analyzer reports any attempt.
func (n *pulseNode) SendInto(round int, buf []eds.Message) {
	for i := range buf {
		buf[i] = beat
	}
}

// Send is the classic contract: allocate and return a fresh slice.
// Engines never call it on a node that implements SendInto, but
// keeping it makes the node usable wherever a plain Node is expected.
func (n *pulseNode) Send(round int) []eds.Message {
	msgs := make([]eds.Message, n.deg)
	n.SendInto(round, msgs)
	return msgs
}

func (n *pulseNode) Receive(round int, inbox []eds.Message) {
	for _, m := range inbox {
		if m == beat {
			n.heard++
		}
	}
	n.left--
}

func (n *pulseNode) Done() bool    { return n.left <= 0 }
func (n *pulseNode) Output() []int { return nil }

// legacyOnly forwards the four Node methods and nothing else (an
// embedded field would promote SendInto too), so the engines' one-time
// type assertion fails and every round goes through allocating Send.
type legacyOnly struct{ n *pulseNode }

func (w legacyOnly) Send(round int) []eds.Message           { return w.n.Send(round) }
func (w legacyOnly) Receive(round int, inbox []eds.Message) { w.n.Receive(round, inbox) }
func (w legacyOnly) Done() bool                             { return w.n.Done() }
func (w legacyOnly) Output() []int                          { return w.n.Output() }

var (
	_ eds.BufferedNode = (*pulseNode)(nil)
	_ eds.Node         = legacyOnly{}
)

func main() {
	log.SetFlags(0)
	g := eds.Torus(32, 32) // 1024 nodes, 4-regular

	measure := func(buffered bool, rounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := eds.RunSharded(g, pulse{rounds: rounds, buffered: buffered}); err != nil {
				log.Fatal(err)
			}
		})
	}

	for _, mode := range []struct {
		name     string
		buffered bool
	}{{"legacy Send", false}, {"BufferedNode", true}} {
		short, long := measure(mode.buffered, 4), measure(mode.buffered, 64)
		fmt.Printf("%-12s  4 rounds: %6.0f allocs   64 rounds: %6.0f allocs   per extra round: %.2f\n",
			mode.name, short, long, (long-short)/60)
	}
	fmt.Println("\nThe buffered variant's allocations are per-run construction only:")
	fmt.Println("60 extra rounds cost 0 extra objects. That is the fast path the")
	fmt.Println("paper algorithms in internal/core run on.")
}
