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

	"eds/internal/sim"
)

// epoch is package-level mutable state; node code must not read it.
var epoch = 3

// Bad is an Algorithm whose nodes consult every forbidden input.
type Bad struct{}

var _ sim.Algorithm = Bad{}

func (Bad) Name() string { return "bad" }

func (Bad) NewNode(degree int) sim.Node {
	seen := map[int]bool{}
	return &badNode{deg: degree, seen: seen}
}

type badNode struct {
	deg  int
	seen map[int]bool
	pc   int
}

func (n *badNode) Send(round int) []sim.Message {
	msgs := make([]sim.Message, n.deg)
	if time.Now().UnixNano()%2 == 0 { // want `time\.Now`
		msgs[0] = 1
	}
	if rand.Intn(2) == 1 { // want `forbids randomness`
		msgs[0] = 2
	}
	for p := range n.seen { // want `map iteration order`
		msgs[p%n.deg] = 3
	}
	if round > epoch { // want `package-level state`
		msgs[0] = 4
	}
	return msgs
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

func (n *badNode) Output() []int {
	var out []int
	for p := range n.seen { // want `map iteration order`
		out = append(out, p+1)
	}
	return out
}

// Good is the deterministic twin: same protocol, lawful state handling.
type Good struct{}

var _ sim.Algorithm = Good{}

func (Good) Name() string { return "good" }

func (Good) NewNode(degree int) sim.Node {
	return &goodNode{deg: degree, seen: make([]bool, degree)}
}

type goodNode struct {
	deg  int
	seen []bool
	pc   int
}

func (n *goodNode) Send(round int) []sim.Message {
	msgs := make([]sim.Message, n.deg)
	for i := range msgs {
		if n.seen[i] {
			msgs[i] = 1
		}
	}
	return msgs
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

func (n *goodNode) Output() []int {
	var out []int
	for i, s := range n.seen {
		if s {
			out = append(out, i+1)
		}
	}
	return out
}
