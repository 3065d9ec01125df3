// Quickstart: build an anonymous port-numbered network, let the library
// pick the algorithm with the optimal worst-case guarantee, run it, and
// verify the output.
package main

import (
	"fmt"
	"log"

	"eds"
)

func main() {
	log.SetFlags(0)

	// A 4-regular toroidal grid: 16 anonymous nodes that know nothing
	// but their own degree and their port numbers 1..4.
	g := eds.Torus(4, 4)

	// For an even-regular graph the optimal deterministic algorithm is
	// Theorem 3's PortOne with the tight guarantee 4 - 2/d = 7/2.
	alg, bound, err := eds.ForGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d; algorithm: %s; tight guarantee: %s\n",
		g.N(), g.M(), alg.Name(), bound)

	// Run on the deterministic engine...
	d, res, err := eds.Run(g, alg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected %d edges in %d round(s) with %d messages\n",
		d.Count(), res.Rounds, res.Messages)

	// ...and on the sharded engine with three workers: same output, by
	// design.
	d2, _, err := eds.RunSharded(g, alg, eds.WithShards(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sharded engine agrees: %v\n", d.Equal(d2))

	// The output is always a feasible edge dominating set.
	fmt.Printf("feasible edge dominating set: %v\n", eds.IsEdgeDominatingSet(g, d))

	// On a 16-node instance the exact optimum is still computable.
	measured, err := eds.MeasuredRatio(g, d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured ratio %s (= %.3f) <= guarantee %s (= %.3f)\n",
		measured, measured.Float64(), bound, bound.Float64())
}
