// Adversarial: watch the lower bound bite.
//
// The paper's Theorem 1 says that on a specific d-regular port-numbered
// graph, *no* deterministic anonymous algorithm can do better than
// 4 - 2/d. This example builds that graph for d = 6, runs several
// different algorithms on it, and shows that every one of them pays at
// least the forced ratio — while on a random 6-regular graph of the same
// size they all do much better. The port numbering, not the topology, is
// the adversary.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"eds"
	"eds/internal/core"
	"eds/internal/lowerbound"
	"eds/internal/sim"
	"eds/internal/verify"
)

func main() {
	log.SetFlags(0)
	const d = 6

	c := lowerbound.MustEven(d)
	fmt.Printf("Theorem 1 construction for d = %d: n = %d, optimum = %d edges\n",
		d, c.G.N(), c.Opt.Count())
	fmt.Printf("forced ratio for ANY deterministic algorithm: 4 - 2/d = %.4f\n\n", 4-2.0/d)

	algs := []sim.Algorithm{
		core.PortOne{},
		core.NewGeneral(d),
		core.NewGeneral(d + 3), // extra slack changes nothing
	}
	for _, alg := range algs {
		res, err := sim.RunSequential(c.G, alg)
		if err != nil {
			log.Fatal(err)
		}
		ds := res.Outputs
		ratio := float64(ds.Count()) / float64(c.Opt.Count())
		fmt.Printf("  %-24s |D| = %2d  ratio = %.4f (forced >= %.4f: %v)\n",
			alg.Name(), ds.Count(), ratio, 4-2.0/d, ratio >= 4-2.0/d-1e-9)
	}

	// Same algorithms, same degree, benign instance: ratios collapse.
	rng := rand.New(rand.NewSource(1))
	g, err := eds.RandomRegular(rng, c.G.N()+1, d)
	if err != nil {
		log.Fatal(err)
	}
	opt := verify.MinimumMaximalMatching(g).Count()
	fmt.Printf("\nrandom %d-regular graph with n = %d (optimum %d):\n", d, g.N(), opt)
	for _, alg := range algs {
		res, err := sim.RunSequential(g, alg)
		if err != nil {
			log.Fatal(err)
		}
		ds := res.Outputs
		fmt.Printf("  %-24s |D| = %2d  ratio = %.4f\n",
			alg.Name(), ds.Count(), float64(ds.Count())/float64(opt))
	}
	fmt.Println("\nthe adversarial port numbering makes all nodes locally identical;")
	fmt.Println("the covering-map argument then forces every algorithm to select a full 2-factor.")
}
