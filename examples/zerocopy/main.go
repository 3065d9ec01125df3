// Zerocopy: writing a custom algorithm on the engines' zero-allocation
// contract.
//
// Every algorithm, the paper's and yours, implements the same two
// interfaces. An eds.Algorithm builds a whole range of nodes in one
// call, so it can put them in one value slab and carve their per-port
// state from the engine's pooled StateArena. An eds.Node writes each
// round's messages straight into a window of the engine's pooled flat
// outbox, and after the last round marks its chosen ports in that
// window once more; the engine checks the marks and returns the chosen
// edges as one edge set D. A message is one uint64 word (0 means "no
// message"), so writing one never allocates. This example defines a toy
// multi-round protocol that way and measures it with
// testing.AllocsPerRun: the allocation count of a run does not grow
// with its round count.
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

// pulse is a deliberately minimal custom algorithm: every node
// broadcasts a heartbeat on all ports for a fixed number of rounds,
// counts per port what it hears, and selects the edges it heard from.
type pulse struct{ rounds int }

func (p pulse) Name() string { return fmt.Sprintf("pulse(%d)", p.rounds) }

// BuildNodes builds the nodes of [lo, hi) in one value slab, the
// range's only allocation, and carves each node's per-port counters
// from the arena. The engine rewinds the arena for the next run, so
// carved state may live in node state (it dies with the run) but never
// in the pulse value itself: the arenaalias analyzer reports that.
func (p pulse) BuildNodes(g *eds.Graph, lo, hi int, arena *eds.StateArena, nodes []eds.Node) {
	slab := make([]pulseNode, hi-lo)
	for i := range slab {
		slab[i] = pulseNode{left: p.rounds, heard: arena.Ints(g.Deg(lo + i))}
		nodes[i] = &slab[i]
	}
}

type pulseNode struct {
	left  int
	heard []int // heartbeats heard per port
}

// SendInto writes into the engine-owned buffer and keeps nothing. buf
// arrives all-zero with exactly deg slots; slots left 0 mean "no
// message on that port". Retaining buf is a bug (the engine rewrites it
// every round and pools it across runs), and the outboxalias analyzer
// reports any attempt.
func (n *pulseNode) SendInto(round int, buf []eds.Message) {
	for i := range buf {
		buf[i] = beat
	}
}

func (n *pulseNode) Receive(round int, inbox []eds.Message) {
	for i, m := range inbox {
		if m == beat {
			n.heard[i]++
		}
	}
	n.left--
}

func (n *pulseNode) Done() bool { return n.left <= 0 }

// Output marks the chosen ports with a nonzero word in the window the
// engine hands over once after the last round, under SendInto's rule:
// keep nothing. A node chooses every port it heard from; both ends of an
// edge hear each other, so the choice is consistent, which the engine
// checks before it returns D.
func (n *pulseNode) Output(buf []eds.Message) {
	for i, h := range n.heard {
		if h > 0 {
			buf[i] = beat
		}
	}
}

func main() {
	log.SetFlags(0)
	g := eds.Torus(32, 32) // 1024 nodes, 4-regular

	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := eds.RunSharded(g, pulse{rounds: rounds}); err != nil {
				log.Fatal(err)
			}
		})
	}
	d, _, err := eds.RunSharded(g, pulse{rounds: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pulse selected %d of %d edges\n", d.Count(), g.M())
	short, long := measure(4), measure(64)
	fmt.Printf(" 4 rounds: %4.0f allocs per run\n64 rounds: %4.0f allocs per run\nper extra round: %.2f\n",
		short, long, (long-short)/60)
	fmt.Println("\nThe allocations are per-run construction and result assembly only:")
	fmt.Println("60 extra rounds cost 0 extra objects. The paper's algorithms in")
	fmt.Println("internal/core run on the same contract.")
}
