// Command edsrun runs one of the paper's algorithms on a generated
// port-numbered graph and reports feasibility, solution quality, and
// execution statistics.
//
// Usage:
//
//	edsrun -graph cycle:12 -alg auto
//	edsrun -graph regular:n=20,d=3 -alg regularodd -engine concurrent
//	edsrun -graph regular:n=100000,d=3 -alg regularodd -engine sharded -shards 8
//	edsrun -graph evenlb:d=6 -alg portone -dot out.dot
//
// Engines: sequential (reference), concurrent (goroutine per node),
// sharded (flat-buffer engine, one worker per CPU by default), auto
// (sharded above 4096 nodes, sequential below). All engines produce
// identical results.
//
// Graphs: cycle:N, path:N, complete:N, hypercube:DIM, torus:RxC,
// petersen, matching:K, regular:n=N,d=D, bounded:n=N,delta=D,
// tree:N, evenlb:d=D, oddlb:d=D.
//
// Algorithms: auto, portone, regularodd, regularodd-nopruning,
// general (uses the graph's max degree), general:DELTA, alledges.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"eds/internal/core"
	"eds/internal/sim"
	"eds/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("edsrun: ")
	graphSpec := flag.String("graph", "cycle:12", "graph specification (see -help)")
	algSpec := flag.String("alg", "auto", "algorithm: auto|portone|regularodd|regularodd-nopruning|general[:D]|alledges")
	engine := flag.String("engine", "sequential", "engine: sequential|concurrent|sharded|auto")
	shards := flag.Int("shards", 0, "worker shards for the sharded engine (0 = one per CPU)")
	seed := flag.Int64("seed", 1, "seed for random graph families")
	dotOut := flag.String("dot", "", "write a DOT rendering with the output highlighted")
	exact := flag.Bool("exact", false, "also compute the exact optimum (exponential; small graphs only)")
	profile := flag.Bool("profile", false, "print the per-message-kind communication profile (sequential, sharded, and auto engines)")
	flag.Parse()

	g, opt, err := spec.Graph(*graphSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	alg, bound, err := spec.Algorithm(*algSpec, g)
	if err != nil {
		log.Fatal(err)
	}

	var res *sim.Result
	var trace *sim.Trace
	traceOpts := func() []sim.Option {
		if !*profile {
			return nil
		}
		var traceOpt sim.Option
		trace, traceOpt = sim.NewTrace(core.KindName)
		return []sim.Option{traceOpt}
	}
	switch *engine {
	case "auto":
		res, err = sim.RunAuto(g, alg, append(traceOpts(), sim.WithShards(*shards))...)
	case "sequential":
		res, err = sim.RunSequential(g, alg, traceOpts()...)
	case "concurrent":
		// The concurrent engine rejects hooked runs with a documented
		// sim.ErrHookUnsupported; passing the trace option through keeps
		// the CLI aligned with the engine's contract instead of
		// duplicating the policy here.
		res, err = sim.RunConcurrent(g, alg, traceOpts()...)
	case "sharded":
		res, err = sim.RunSharded(g, alg, append(traceOpts(), sim.WithShards(*shards))...)
	default:
		log.Fatalf("unknown engine %q", *engine)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := report(os.Stdout, g, alg, bound, res, opt, *exact, *dotOut); err != nil {
		log.Fatal(err)
	}
	if trace != nil {
		fmt.Println("\ncommunication profile:")
		fmt.Print(trace.String())
	}
}
