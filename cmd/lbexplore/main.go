// Command lbexplore inspects the paper's lower-bound constructions: it
// builds the Theorem 1 (even d) or Theorem 2 (odd d) instance, verifies
// the covering map onto the quotient multigraph, runs every applicable
// algorithm, and shows how the covering argument forces the tight ratio —
// including the per-fibre uniform outputs.
//
// Usage:
//
//	lbexplore -d 6
//	lbexplore -d 5 -fibres
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"eds/internal/core"
	"eds/internal/cover"
	"eds/internal/graph"
	"eds/internal/lowerbound"
	"eds/internal/ratio"
	"eds/internal/sim"
	"eds/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbexplore: ")
	d := flag.Int("d", 6, "degree of the construction (even -> Theorem 1, odd -> Theorem 2)")
	fibres := flag.Bool("fibres", false, "print the per-fibre outputs")
	flag.Parse()
	if err := explore(os.Stdout, *d, *fibres); err != nil {
		log.Fatal(err)
	}
}

func explore(w io.Writer, d int, fibres bool) error {
	var c *lowerbound.Construction
	var paper ratio.R
	var theorem string
	var err error
	if d%2 == 0 {
		c, err = lowerbound.Even(d)
		paper = ratio.EvenRegularBound(d)
		theorem = "Theorem 1"
	} else {
		c, err = lowerbound.Odd(d)
		paper = ratio.OddRegularBound(d)
		theorem = "Theorem 2"
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s construction for d = %d\n", theorem, d)
	fmt.Fprintf(w, "  nodes: %d, edges: %d, optimum |D*| = %d\n", c.G.N(), c.G.M(), c.Opt.Count())
	if err := cover.Verify(c.G, c.Quotient, c.Map); err != nil {
		return fmt.Errorf("covering map: %w", err)
	}
	fmt.Fprintf(w, "  covering map onto a %d-node quotient multigraph: verified\n", c.Quotient.N())
	fmt.Fprintf(w, "  forced ratio for any deterministic algorithm: %s (= %.4f)\n\n", paper, paper.Float64())

	algs := []sim.Algorithm{core.PortOne{}, core.NewGeneral(d)}
	if d%2 == 1 {
		algs = append(algs, core.RegularOdd{}, core.RegularOdd{SkipPruning: true})
	}
	for _, alg := range algs {
		res, err := sim.RunSequential(c.G, alg)
		if err != nil {
			return fmt.Errorf("%s: %w", alg.Name(), err)
		}
		ds := res.Outputs
		measured := ratio.New(int64(ds.Count()), int64(c.Opt.Count()))
		fmt.Fprintf(w, "  %-24s |D| = %4d  ratio = %-7s (%.4f)  rounds = %4d  feasible = %v\n",
			alg.Name(), ds.Count(), measured.String(), measured.Float64(), res.Rounds,
			verify.IsEdgeDominatingSet(c.G, ds))
	}

	if fibres {
		fmt.Fprintln(w, "\nPer-fibre outputs (covering-map lemma: constant on every fibre):")
		alg := algs[0]
		res, err := sim.RunSequential(c.G, alg)
		if err != nil {
			return err
		}
		byFibre := make(map[int][]int)
		for v, f := range c.Map {
			x := graph.PortsIn(c.G, res.Outputs, v)
			if _, seen := byFibre[f]; !seen {
				byFibre[f] = x
			} else if fmt.Sprint(byFibre[f]) != fmt.Sprint(x) {
				return fmt.Errorf("fibre %d outputs are not uniform", f)
			}
		}
		for f := 0; f < c.Quotient.N(); f++ {
			size := 0
			for _, m := range c.Map {
				if m == f {
					size++
				}
			}
			fmt.Fprintf(w, "  fibre %d (%d nodes): X = %v\n", f, size, byFibre[f])
		}
	}
	return nil
}
