// Package arenaalias is the arenaalias fixture: BuildNodes-style
// functions that leak sim.StateArena carves in every way the analyzer
// recognises, next to lawful per-run carving. The arena is rewound when
// the run's pooled state is released, so any carve that outlives the
// run aliases a later run's zeroed memory — a corruption only the
// recycling engines can exhibit.
package arenaalias

import (
	"eds/internal/graph"
	"eds/internal/sim"
)

// latestPeers is a package-level sink; a carve stored here dangles the
// moment the run ends.
var latestPeers []int

// leakyAlg caches arena-backed state on the algorithm value itself.
// Algorithms outlive runs (one value serves many Run* calls), so these
// fields point into recycled memory on the second run.
type leakyAlg struct {
	cache   []int
	scratch []bool
	arena   *sim.StateArena
}

func (leakyAlg) Name() string { return "leaky" }

func (a *leakyAlg) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	a.cache = arena.Ints(hi - lo)    // want `stored in an algorithm field`
	a.scratch = arena.Bools(hi - lo) // want `stored in an algorithm field`
	latestPeers = arena.Ints(4)      // want `stored outside the function`
	peers := arena.Ints(8)
	a.cache = peers[:4] // want `stored in an algorithm field`
}

func (a *leakyAlg) carve(arena *sim.StateArena, n int) []int {
	return arena.Ints(n) // want `returned from an algorithm method`
}

func leakyChannel(ch chan []int, arena *sim.StateArena) {
	ch <- arena.Ints(16) // want `sent on a channel`
}

func leakyGoroutine(arena *sim.StateArena) {
	go func() { // want `captured by a goroutine`
		_ = arena.Ints(1)
	}()
}

// goodNode holds carves in node state — the sanctioned pattern: nodes
// die with the run, exactly matching the arena's lifetime.
type goodNode struct {
	peer []int
	seen []bool
}

type goodAlg struct{}

func (goodAlg) Name() string { return "good" }

func (goodAlg) BuildNodes(g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node) {
	slab := make([]goodNode, hi-lo)
	for i := range slab {
		deg := g.Deg(lo + i)
		// Node-state stores are the arena's purpose; copying carved
		// data out is always lawful too.
		slab[i] = goodNode{peer: arena.Ints(deg), seen: arena.Bools(deg)}
	}
	snapshot := append([]int(nil), slab[0].peer...)
	latestPeers = snapshot
}

// carveInts is a carve helper: free functions may return carves — the
// caller decides the lifetime, and the intraprocedural analysis checks
// each caller against its own arena parameter.
func carveInts(arena *sim.StateArena, n int) []int {
	return arena.Ints(n)
}
