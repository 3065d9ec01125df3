// Package spec parses the textual graph and algorithm specifications
// shared by the command-line tools (edsrun) and the serving layer
// (internal/server, cmd/edsd): compact strings like "regular:n=20,d=3"
// or "general:7" that name a graph family or an algorithm with its
// parameters. Keeping the grammar in one package guarantees the CLI and
// the server accept exactly the same specs.
package spec

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/lowerbound"
	"eds/internal/ratio"
	"eds/internal/sim"
)

// Graph builds the graph described by spec. For the lower-bound families
// it also returns the known optimal edge dominating set.
//
// Families: cycle:N, path:N, complete:N, hypercube:DIM, torus:RxC,
// petersen, matching:K, regular:n=N,d=D, bounded:n=N,delta=D, tree:N,
// evenlb:d=D, oddlb:d=D, file:PATH.
func Graph(spec string, seed int64) (*graph.Graph, *graph.EdgeSet, error) {
	name, arg, _ := strings.Cut(spec, ":")
	if name == "file" {
		f, err := os.Open(arg)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := graph.ReadGraph(f)
		if err != nil {
			return nil, nil, fmt.Errorf("reading %s: %w", arg, err)
		}
		return g, nil, nil
	}
	params, err := parseParams(arg)
	if err != nil {
		return nil, nil, fmt.Errorf("graph %q: %w", spec, err)
	}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "cycle":
		return gen.Cycle(params.single(12)), nil, nil
	case "path":
		return gen.Path(params.single(12)), nil, nil
	case "complete":
		return gen.Complete(params.single(6)), nil, nil
	case "hypercube":
		return gen.Hypercube(params.single(4)), nil, nil
	case "torus":
		r, c := params.pair(4, 4)
		return gen.Torus(r, c), nil, nil
	case "petersen":
		return gen.Petersen(), nil, nil
	case "matching":
		return gen.PerfectMatching(params.single(6)), nil, nil
	case "tree":
		return gen.RandomTree(rng, params.single(20)), nil, nil
	case "regular":
		g, err := gen.RandomRegular(rng, params.get("n", 20), params.get("d", 3))
		return g, nil, err
	case "bounded":
		return gen.RandomBoundedDegree(rng, params.get("n", 20), params.get("delta", 4), 0.5), nil, nil
	case "evenlb":
		c, err := lowerbound.Even(params.get("d", 6))
		if err != nil {
			return nil, nil, err
		}
		return c.G, c.Opt, nil
	case "oddlb":
		c, err := lowerbound.Odd(params.get("d", 5))
		if err != nil {
			return nil, nil, err
		}
		return c.G, c.Opt, nil
	default:
		return nil, nil, fmt.Errorf("unknown graph family %q", name)
	}
}

// Algorithm resolves the algorithm spec against the graph, returning the
// worst-case guarantee when one applies.
//
// Specs: auto, portone, regularodd, regularodd-nopruning, general
// (uses the graph's max degree), general:DELTA, alledges, idmatching.
func Algorithm(spec string, g *graph.Graph) (sim.Algorithm, *ratio.R, error) {
	name, arg, _ := strings.Cut(spec, ":")
	bound := func(r ratio.R) *ratio.R { return &r }
	switch name {
	case "auto":
		if g.MaxDegree() <= 1 {
			return core.AllEdges{}, bound(ratio.FromInt(1)), nil
		}
		if d, ok := g.Regular(); ok {
			if d%2 == 0 {
				return core.PortOne{}, bound(ratio.EvenRegularBound(d)), nil
			}
			return core.RegularOdd{}, bound(ratio.OddRegularBound(d)), nil
		}
		return core.NewGeneral(g.MaxDegree()), bound(ratio.BoundedDegreeBound(g.MaxDegree())), nil
	case "portone":
		if d, ok := g.Regular(); ok {
			return core.PortOne{}, bound(ratio.EvenRegularBound(d)), nil
		}
		return core.PortOne{}, nil, nil
	case "regularodd":
		if d, ok := g.Regular(); ok && d%2 == 1 {
			return core.RegularOdd{}, bound(ratio.OddRegularBound(d)), nil
		}
		return nil, nil, fmt.Errorf("regularodd needs an odd-regular graph")
	case "regularodd-nopruning":
		if d, ok := g.Regular(); ok && d%2 == 1 {
			return core.RegularOdd{SkipPruning: true}, bound(ratio.EvenRegularBound(d)), nil
		}
		return nil, nil, fmt.Errorf("regularodd-nopruning needs an odd-regular graph")
	case "general":
		delta := g.MaxDegree()
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, nil, fmt.Errorf("general:%s: %w", arg, err)
			}
			delta = v
		}
		if delta < g.MaxDegree() {
			return nil, nil, fmt.Errorf("general: Δ=%d below the graph's max degree %d", delta, g.MaxDegree())
		}
		if delta < 2 {
			return core.AllEdges{}, bound(ratio.FromInt(1)), nil
		}
		return core.NewGeneral(delta), bound(ratio.BoundedDegreeBound(delta)), nil
	case "alledges":
		return core.AllEdges{}, nil, nil
	case "idmatching":
		// Model extension: unique IDs. Any maximal matching is a
		// 2-approximation.
		return core.IDMatching{}, bound(ratio.FromInt(2)), nil
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// params holds parsed key=value or positional-integer arguments.
type params struct {
	positional []int
	named      map[string]int
}

func parseParams(arg string) (params, error) {
	p := params{named: map[string]int{}}
	if arg == "" {
		return p, nil
	}
	for _, part := range strings.FieldsFunc(arg, func(r rune) bool { return r == ',' || r == 'x' }) {
		if key, val, ok := strings.Cut(part, "="); ok {
			v, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("bad parameter %q: %w", part, err)
			}
			p.named[key] = v
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return p, fmt.Errorf("bad parameter %q: %w", part, err)
		}
		p.positional = append(p.positional, v)
	}
	return p, nil
}

func (p params) single(def int) int {
	if len(p.positional) > 0 {
		return p.positional[0]
	}
	return def
}

func (p params) pair(defA, defB int) (int, int) {
	a, b := defA, defB
	if len(p.positional) > 0 {
		a = p.positional[0]
	}
	if len(p.positional) > 1 {
		b = p.positional[1]
	}
	return a, b
}

func (p params) get(key string, def int) int {
	if v, ok := p.named[key]; ok {
		return v
	}
	return def
}
