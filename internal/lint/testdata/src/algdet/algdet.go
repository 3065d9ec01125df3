// Package algdet is the algdeterminism fixture: a sim.Algorithm whose
// node code commits every class of nondeterminism the analyzer knows,
// next to a clean twin that must stay diagnostic-free. Each violation
// here produces byte-identical results across engines on most runs —
// which is why the cross-engine equivalence suite alone cannot be
// trusted to catch them.
package algdet

import (
	"math/rand"
	"time"

	"eds/internal/graph"
	"eds/internal/sim"
)

// epoch is package-level mutable state; node code must not read it.
var epoch = 3

// Bad is an Algorithm whose nodes consult every forbidden input.
type Bad struct{}

var _ sim.Algorithm = Bad{}

func (Bad) Name() string { return "bad" }

func (Bad) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	for i := range nodes {
		nodes[i] = &badNode{deg: g.Deg(lo + i), seen: map[int]bool{}}
	}
}

type badNode struct {
	deg  int
	seen map[int]bool
	pc   int
}

func (n *badNode) SendInto(round int, buf []sim.Message) {
	if time.Now().UnixNano()%2 == 0 { // want `time\.Now`
		buf[0] = 1
	}
	if rand.Intn(2) == 1 { // want `forbids randomness`
		buf[0] = 2
	}
	for p := range n.seen { // want `map iteration order`
		buf[p%n.deg] = 3
	}
	if round > epoch { // want `package-level state`
		buf[0] = 4
	}
}

func (n *badNode) Receive(round int, inbox []sim.Message) {
	// Order-insensitive map iteration (pure counting) is legal: no
	// message or port production depends on it.
	count := 0
	for range n.seen {
		count++
	}
	for i, m := range inbox {
		if m != 0 {
			n.seen[i] = true
		}
	}
	n.pc++
}

func (n *badNode) Done() bool { return n.pc >= 2 }

func (n *badNode) Output(buf []sim.Message) {
	for p := range n.seen { // want `map iteration order`
		buf[p] = 1
	}
}

// Good is the deterministic twin: same protocol, lawful state handling.
type Good struct{}

var _ sim.Algorithm = Good{}

func (Good) Name() string { return "good" }

func (Good) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	for i := range nodes {
		nodes[i] = &goodNode{seen: arena.Bools(g.Deg(lo + i))}
	}
}

type goodNode struct {
	seen []bool
	pc   int
}

func (n *goodNode) SendInto(round int, buf []sim.Message) {
	for i := range buf {
		if n.seen[i] {
			buf[i] = 1
		}
	}
}

func (n *goodNode) Receive(round int, inbox []sim.Message) {
	for i, m := range inbox {
		if m != 0 {
			n.seen[i] = true
		}
	}
	n.pc++
}

func (n *goodNode) Done() bool { return n.pc >= 2 }

func (n *goodNode) Output(buf []sim.Message) {
	for i, s := range n.seen {
		if s {
			buf[i] = 1
		}
	}
}
