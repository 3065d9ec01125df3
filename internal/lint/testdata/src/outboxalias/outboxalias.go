// Package outboxalias is the outboxalias fixture: round-hook callbacks
// and Receive-style functions that retain engine-owned buffer views in
// every way the analyzer recognises, next to lawful copying code. On
// the sequential engine these bugs are invisible (its matrix rows are
// stable for a whole run); the sharded engine recycles the flat outbox
// every round, so retention corrupts whatever inspects the data later —
// after the equivalence comparison has already passed.
package outboxalias

import "eds/internal/sim"

// latest is a package-level sink; storing a view here keeps it past the
// barrier.
var latest [][]sim.Message

type recorder struct {
	rows []([]sim.Message)
	last []sim.Message
}

func (r *recorder) hook(round int, sent [][]sim.Message) {
	r.last = sent[0]                 // want `stored in a field`
	r.rows = append(r.rows, sent[1]) // want `appended to another slice`
	latest = sent                    // want `stored outside the callback`
	row := sent[2]
	r.last = row // want `stored in a field`
}

func leakyReturn(sent [][]sim.Message) []sim.Message {
	return sent[0] // want `returned from the callback`
}

func leakyChannel(ch chan []sim.Message, inbox []sim.Message) {
	ch <- inbox // want `sent on a channel`
}

func leakyGoroutine(sent [][]sim.Message) {
	go func() { // want `captured by a goroutine`
		_ = len(sent[0])
	}()
}

func leakyContainer(table map[int][]sim.Message, round int, sent [][]sim.Message) {
	table[round] = sent[0] // want `stored in a container element`
}

// leakySendNode plants the SendInto half of the invariant: the buf
// handed to a node's SendInto is a window into the engine's pooled flat
// outbox, rewritten every round and returned to a sync.Pool when the
// run ends. Stashing it gives the node a view of whatever the *next*
// run writes there.
type leakySendNode struct {
	stash []sim.Message
	deg   int
}

func (n *leakySendNode) SendInto(round int, buf []sim.Message) {
	n.stash = buf // want `stored in a field`
}

func leakySendClosure(out chan<- []sim.Message) func(round int, buf []sim.Message) {
	return func(round int, buf []sim.Message) {
		out <- buf // want `sent on a channel`
	}
}

// goodSendNode writes into the buffer and keeps nothing: the whole
// point of the SendInto contract.
type goodSendNode struct {
	deg int
}

func (n *goodSendNode) SendInto(round int, buf []sim.Message) {
	for i := 0; i < n.deg; i++ {
		buf[i] = 0
	}
}

// goodHook demonstrates the lawful patterns: reading elements, copying
// rows, and aggregating — none of which alias engine memory.
func goodHook(round int, sent [][]sim.Message) {
	counts := make([]int, len(sent))
	for v, row := range sent {
		for _, m := range row {
			if m != 0 {
				counts[v]++
			}
		}
	}
	// Copying the elements of a row is fine: the messages themselves are
	// not recycled, only the slice backing store is.
	snapshot := append([]sim.Message(nil), sent[0]...)
	_ = snapshot
	// Deep-copying the matrix is the sanctioned way to retain it.
	kept := make([][]sim.Message, len(sent))
	for v := range sent {
		kept[v] = append([]sim.Message(nil), sent[v]...)
	}
	latest = kept
}
