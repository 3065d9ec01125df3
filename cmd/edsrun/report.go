package main

import (
	"fmt"
	"io"
	"os"

	"eds/internal/graph"
	"eds/internal/ratio"
	"eds/internal/render"
	"eds/internal/sim"
	"eds/internal/verify"
)

// report prints the execution summary and optionally a DOT rendering.
func report(w io.Writer, g *graph.Graph, alg sim.Algorithm, bound *ratio.R,
	res *sim.Result, knownOpt *graph.EdgeSet, exact bool, dotOut string) error {
	d := res.Outputs
	fmt.Fprintf(w, "graph: n=%d m=%d maxdeg=%d", g.N(), g.M(), g.MaxDegree())
	if deg, ok := g.Regular(); ok {
		fmt.Fprintf(w, " (%d-regular)", deg)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "algorithm: %s\n", alg.Name())
	fmt.Fprintf(w, "rounds: %d, messages: %d\n", res.Rounds, res.Messages)
	fmt.Fprintf(w, "|D| = %d, feasible EDS: %v\n", d.Count(), verify.IsEdgeDominatingSet(g, d))
	if bound != nil {
		fmt.Fprintf(w, "worst-case guarantee: %s (= %.4f)\n", bound, bound.Float64())
	}

	optSize := -1
	switch {
	case knownOpt != nil:
		optSize = knownOpt.Count()
		fmt.Fprintf(w, "known optimum: %d\n", optSize)
	case exact:
		opt := verify.MinimumMaximalMatching(g)
		optSize = opt.Count()
		fmt.Fprintf(w, "exact optimum: %d\n", optSize)
	default:
		mm := verify.GreedyMaximalMatching(g).Count()
		lb := (mm + 1) / 2
		dom := 2*g.MaxDegree() - 1
		if dom >= 1 {
			if byDom := (g.M() + dom - 1) / dom; byDom > lb {
				lb = byDom
			}
		}
		if lb > 0 {
			fmt.Fprintf(w, "optimum lower bound: %d (ratio at most %.4f)\n", lb, float64(d.Count())/float64(lb))
		}
	}
	if optSize > 0 {
		r := ratio.New(int64(d.Count()), int64(optSize))
		fmt.Fprintf(w, "measured ratio: %s (= %.4f)\n", r, r.Float64())
	}

	if dotOut != "" {
		opts := render.Options{
			Title:    fmt.Sprintf("%s on n=%d m=%d", alg.Name(), g.N(), g.M()),
			Overlays: []render.Overlay{{Name: "output D", Set: d, Color: "red"}},
		}
		if knownOpt != nil {
			opts.Overlays = append(opts.Overlays,
				render.Overlay{Name: "optimum", Set: knownOpt, Color: "blue"})
		}
		if err := os.WriteFile(dotOut, []byte(render.DOT(g, opts)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", dotOut)
	}
	return nil
}
