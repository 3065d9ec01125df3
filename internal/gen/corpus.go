package gen

import (
	"math/rand"

	"eds/internal/graph"
)

// NamedGraph is a generated graph with the name test tables report it
// under.
type NamedGraph struct {
	Name string
	G    *graph.Graph
}

// EquivalenceCorpus returns the fixed graph corpus that the
// cross-engine equivalence suite and the message-shape checks run every
// algorithm on: the deterministic classic families, seeded random
// regular and bounded-degree graphs, and a multigraph with loops and
// parallel edges. Every call builds the same graphs afresh.
func EquivalenceCorpus() []NamedGraph {
	rng := rand.New(rand.NewSource(42))
	return []NamedGraph{
		{"Cycle/9", Cycle(9)},
		{"Path/12", Path(12)},
		{"Complete/7", Complete(7)},
		{"Hypercube/3", Hypercube(3)},
		{"Torus/3x4", Torus(3, 4)},
		{"RandomRegular/n=20,d=3", MustRandomRegular(rng, 20, 3)},
		{"RandomRegular/n=16,d=4", MustRandomRegular(rng, 16, 4)},
		{"RandomBoundedDegree/n=24,delta=4", RandomBoundedDegree(rng, 24, 4, 0.4)},
		{"Multigraph/loops", multigraph()},
	}
}

// multigraph exercises undirected loops, a directed loop, and parallel
// edges in one instance.
func multigraph() *graph.Graph {
	b := graph.NewBuilder(3)
	b.MustConnect(0, 1, 0, 2) // undirected loop
	b.MustConnect(0, 3, 0, 3) // directed loop
	b.MustConnect(0, 4, 1, 1)
	b.MustConnect(0, 5, 1, 2) // parallel edge
	b.MustConnect(1, 3, 2, 1)
	b.MustConnect(2, 2, 2, 3) // undirected loop on 2
	return b.MustBuild()
}
