package sim

import (
	"fmt"

	"eds/internal/graph"
)

// RunReference is the engines' test oracle: the synchronous model of
// Section 2.2 as a dense loop with nothing to go stale. Every round it
// allocates a fresh outbox and inbox, asks every live node for all of
// its ports, and routes every port through the involution g.P — no
// pool, no delivery list, no shard — and checks and collects the
// outputs port by port. It polls the context and the round
// budget at the same points as the engines and builds the same errors,
// so it can stand in the engine lists of the parity suites.
func RunReference(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	if err := c.ctxErr(a); err != nil {
		return nil, err
	}
	n := g.N()
	nodes := make([]Node, n)
	a.BuildNodes(g, 0, n, &StateArena{}, nodes)
	done := make([]bool, n)
	for v, node := range nodes {
		if node == nil {
			return nil, fmt.Errorf("sim: algorithm %q: BuildNodes left node %d nil", a.Name(), v)
		}
		done[v] = node.Done()
	}
	res := &Result{}
	for round := 0; ; round++ {
		if err := c.ctxErr(a); err != nil {
			return nil, err
		}
		live := false
		for _, d := range done {
			live = live || !d
		}
		if !live {
			break
		}
		if round >= c.maxRounds {
			return nil, roundLimit(a, round)
		}
		res.Rounds = round + 1
		sent := make([][]Message, n)
		for v, node := range nodes {
			sent[v] = make([]Message, g.Deg(v))
			if !done[v] {
				node.SendInto(round, sent[v])
			}
			for _, m := range sent[v] {
				if m != 0 {
					res.Messages++
				}
			}
		}
		if c.roundHook != nil {
			c.roundHook(round, sent)
		}
		for v, node := range nodes {
			if done[v] {
				continue
			}
			inbox := make([]Message, g.Deg(v))
			for i := range inbox {
				q := g.P(v, i+1)
				inbox[i] = sent[q.Node][q.Num-1]
			}
			node.Receive(round, inbox)
			done[v] = node.Done()
		}
	}
	// The output check is a different algorithm from the engines'
	// one-pass epilogue, so the suites hold that pass to an independent
	// one: read X(v) off a fresh buffer per node, mark every chosen
	// port, check each one's partner through g.P, then add each chosen
	// port's edge.
	outputs := make([][]int, n)
	chosen := make([][]bool, n)
	for v, node := range nodes {
		buf := make([]Message, g.Deg(v))
		node.Output(buf)
		chosen[v] = make([]bool, g.Deg(v))
		for i, m := range buf {
			if m != 0 {
				outputs[v] = append(outputs[v], i+1)
				chosen[v][i] = true
			}
		}
	}
	for v, out := range outputs {
		for _, i := range out {
			if q := g.P(v, i); !chosen[q.Node][q.Num-1] {
				return nil, fmt.Errorf("sim: inconsistent output: %d ∈ X(%d) but %d ∉ X(%d)", i, v, q.Num, q.Node)
			}
		}
	}
	res.Outputs = graph.NewEdgeSet(g.M())
	for v, out := range outputs {
		for _, i := range out {
			res.Outputs.Add(g.EdgeAt(v, i))
		}
	}
	return res, nil
}

// BuildEach is the per-node adapter for test algorithms: it implements
// Algorithm.BuildNodes by filling nodes, which start at graph node lo,
// with newNode(degree) in ascending node order.
func BuildEach(g *graph.Graph, lo int, nodes []Node, newNode func(degree int) Node) {
	for i := range nodes {
		nodes[i] = newNode(g.Deg(lo + i))
	}
}
