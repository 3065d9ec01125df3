// Anonymity: why anonymous networks cannot solve symmetry-breaking
// problems, demonstrated with covering maps (Section 2.3 of the paper).
//
// A 12-cycle with the "pair" port numbering covers a one-node multigraph
// with a single loop. Any deterministic algorithm run on the cycle must
// therefore produce the *same* output at every node — which is exactly
// why no such algorithm can compute a maximal matching (nodes would have
// to disagree), while edge dominating sets remain approximable: a
// symmetric output like "every node picks port 1" is still a feasible
// EDS, just not a minimum one.
package main

import (
	"fmt"
	"log"

	"eds"
	"eds/internal/core"
	"eds/internal/cover"
	"eds/internal/graph"
	"eds/internal/sim"
	"eds/internal/verify"
)

func main() {
	log.SetFlags(0)

	// The 12-cycle where p(v,1) = (v+1,2): every node looks exactly like
	// every other node, forever.
	const n = 12
	b := eds.NewBuilder(n)
	for v := 0; v < n; v++ {
		if err := b.Connect(v, 1, (v+1)%n, 2); err != nil {
			log.Fatal(err)
		}
	}
	cycle, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// The quotient: one anonymous node with a single loop.
	qb := eds.NewBuilder(1)
	if err := qb.Connect(0, 1, 0, 2); err != nil {
		log.Fatal(err)
	}
	loop, err := qb.Build()
	if err != nil {
		log.Fatal(err)
	}
	f := make([]int, n)
	if err := cover.Verify(cycle, loop, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C%d covers the 1-node loop multigraph: verified\n\n", n)

	// Run the Theorem 3 algorithm on both graphs.
	alg := core.PortOne{}
	rc, err := sim.RunSequential(cycle, alg)
	if err != nil {
		log.Fatal(err)
	}
	rl, err := sim.RunSequential(loop, alg)
	if err != nil {
		log.Fatal(err)
	}
	// Each node's output X(v) is read back from the edge set D.
	xLoop := fmt.Sprint(graph.PortsIn(loop, rl.Outputs, 0))
	fmt.Printf("output of every cycle node: %v\n", graph.PortsIn(cycle, rc.Outputs, 0))
	fmt.Printf("output of the loop node:    %v\n", xLoop)
	uniform := true
	for v := 0; v < n; v++ {
		if fmt.Sprint(graph.PortsIn(cycle, rc.Outputs, v)) != xLoop {
			uniform = false
		}
	}
	fmt.Printf("all %d nodes output exactly the loop node's output: %v\n\n", n, uniform)

	// The symmetric output is feasible but pays the price of symmetry.
	d := rc.Outputs
	opt := verify.MinimumMaximalMatching(cycle).Count()
	fmt.Printf("the symmetric EDS selects all %d edges; optimum is %d: ratio %.2f, exactly the tight bound 4-2/d for d = 2\n",
		d.Count(), opt, float64(d.Count())/float64(opt))
	fmt.Println("a maximal matching would need adjacent nodes to decide differently —")
	fmt.Println("impossible here, which is why matchings are unsolvable and EDS approximation")
	fmt.Println("bottoms out at ratio 4-2/d in the port-numbering model.")
}
