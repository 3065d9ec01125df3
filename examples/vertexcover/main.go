// Vertexcover: the node-based covering problem the paper contrasts edge
// dominating sets with (Section 1.4), solved by the Polishchuk–Suomela
// local 3-approximation that Theorem 5's phase III is built from.
//
// The same anonymous network, two covering problems:
//
//   - vertex cover — choose nodes touching every edge (here: place a
//     guard on a subset of routers so every link has a guarded endpoint);
//   - edge dominating set — choose edges adjacent to every edge (place
//     monitors on links).
//
// Both are solved by the same 2-matching trick, and both run in O(Δ)
// resp. O(Δ²) rounds regardless of the network size.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"eds"
	"eds/internal/core"
	"eds/internal/graph"
	"eds/internal/sim"
	"eds/internal/verify"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(99))
	g := eds.RandomBoundedDegree(rng, 40, 3, 0.25)
	delta := g.MaxDegree()
	fmt.Printf("network: %d routers, %d links, max degree %d\n\n", g.N(), g.M(), delta)

	// Vertex cover via the local 3-approximation.
	vcAlg := core.VertexCover3{Delta: delta}
	res, err := sim.RunSequential(g, vcAlg)
	if err != nil {
		log.Fatal(err)
	}
	// The cover is the nodes with a non-empty output X(v): the nodes
	// the selected edges cover.
	cover := graph.CoveredNodes(g, res.Outputs)
	size := 0
	for _, in := range cover {
		if in {
			size++
		}
	}
	if !verify.IsVertexCover(g, cover) {
		log.Fatal("not a vertex cover!")
	}
	optVC := verify.MinimumVertexCover(g)
	optSize := 0
	for _, in := range optVC {
		if in {
			optSize++
		}
	}
	fmt.Printf("vertex cover:        %2d guards in %d rounds (optimum %d, guarantee 3x)\n",
		size, res.Rounds, optSize)

	// Edge dominating set via A(Δ) on the same network.
	edsAlg := eds.General(delta)
	d, res2, err := eds.Run(g, edsAlg)
	if err != nil {
		log.Fatal(err)
	}
	opt := verify.MinimumMaximalMatching(g).Count()
	fmt.Printf("edge dominating set: %2d monitors in %d rounds (optimum %d, guarantee %s)\n",
		d.Count(), res2.Rounds, opt, eds.TightRatio(g))

	fmt.Println("\nboth algorithms are strictly local: round counts depend only on Δ,")
	fmt.Println("so the same code runs unchanged on a network of millions of routers.")
}
