//go:build !race

// Allocation regression suite for the zero-allocation contract: the
// sharded engine must not allocate in steady-state rounds, neither in
// its own machinery (pooled run state, persistent workers, flat
// buffers) nor on behalf of the algorithms (SendInto writes straight
// into the engine-owned outbox, and a message is one word, so writing
// it allocates nothing). The suite is excluded under
// -race because the race runtime instruments allocations and would
// report spurious counts.
package sim_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

// spin is a message-free algorithm with a configurable round count.
// Two runs that differ only in round count isolate the engine's own
// per-round allocation cost: any difference in total allocations is
// chargeable to the extra rounds alone.
type spin struct{ rounds int }

func (spin) Name() string { return "spin" }
func (s spin) BuildNodes(g *graph.Graph, lo, hi int, _ *sim.StateArena, nodes []sim.Node) {
	sim.BuildEach(g, lo, nodes, func(int) sim.Node { return &spinNode{left: s.rounds} })
}
func (s spin) Rounds(int) int { return s.rounds }

type spinNode struct{ left int }

func (n *spinNode) SendInto(round int, buf []sim.Message)  {}
func (n *spinNode) Receive(round int, inbox []sim.Message) { n.left-- }
func (n *spinNode) Done() bool                             { return n.left <= 0 }
func (n *spinNode) AppendOutput(dst []int) []int           { return dst }

// disableGC turns the collector off for the duration of a measurement so
// sync.Pool contents survive and allocation counts are deterministic.
func disableGC(t *testing.T) {
	t.Helper()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestEngineRoundsAllocationFree proves the per-round engine cost is
// exactly zero: a 68-round run must allocate precisely as much as a
// 4-round run of the same algorithm on the same graph — the fixed
// per-run cost (node construction, result assembly) with nothing
// proportional to rounds.
func TestEngineRoundsAllocationFree(t *testing.T) {
	disableGC(t)
	g := gen.Cycle(256)

	engines := []struct {
		name string
		run  func(*graph.Graph, sim.Algorithm, ...sim.Option) (*sim.Result, error)
	}{
		{"sharded", sim.RunSharded},
		{"sequential", sim.RunSequential},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			measure := func(rounds int) float64 {
				var err error
				allocs := testing.AllocsPerRun(50, func() {
					_, err = e.run(g, spin{rounds: rounds}, sim.WithShards(4))
				})
				if err != nil {
					t.Fatal(err)
				}
				return allocs
			}
			short, long := measure(4), measure(68)
			if long != short {
				t.Errorf("%s engine allocates per round: 4 rounds → %.1f allocs/run, 68 rounds → %.1f allocs/run (want equal)",
					e.name, short, long)
			}
		})
	}
}

// TestMigratedAlgorithmsZeroAllocSteadyState asserts 0 allocations per
// steady-state round for every migrated constant-round algorithm on the
// sharded engine, measured directly: a round hook samples the global
// allocation counter between the send and receive barriers (no worker
// goroutine runs in that window), so consecutive samples bracket one
// full receive+send cycle. Every cycle after round 0's send — the
// label and ID exchanges' receive included, since those messages are
// words like any other — must allocate exactly nothing.
func TestMigratedAlgorithmsZeroAllocSteadyState(t *testing.T) {
	disableGC(t)
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name string
		g    *graph.Graph
		alg  func() sim.Algorithm
	}{
		{"RegularOdd/d=3", gen.MustRandomRegular(rng, 128, 3), func() sim.Algorithm { return core.RegularOdd{} }},
		{"RegularOdd/d=5", gen.MustRandomRegular(rng, 64, 5), func() sim.Algorithm { return core.RegularOdd{} }},
		{"General/delta=3", gen.RandomBoundedDegree(rng, 128, 3, 0.5), func() sim.Algorithm { return core.NewGeneral(3) }},
		{"IDMatching", gen.MustRandomRegular(rng, 64, 3), func() sim.Algorithm { return core.IDMatching{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			// Warm-up run: fills the state pool so the measured run
			// reuses every buffer.
			if _, err := sim.RunSharded(g, tc.alg(), sim.WithShards(4)); err != nil {
				t.Fatal(err)
			}
			samples := make([]uint64, 0, 4096)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms) // warm the sampling path itself
			hook := func(round int, sent [][]sim.Message) {
				runtime.ReadMemStats(&ms)
				samples = append(samples, ms.Mallocs)
			}
			if _, err := sim.RunSharded(g, tc.alg(), sim.WithShards(4), sim.WithRoundHook(hook)); err != nil {
				t.Fatal(err)
			}
			if len(samples) < 4 {
				t.Fatalf("only %d rounds ran; too few to observe a steady state", len(samples))
			}
			for i := 1; i < len(samples); i++ {
				if d := samples[i] - samples[i-1]; d != 0 {
					t.Errorf("round %d: %d allocations in a steady-state round, want 0", i, d)
				}
			}
		})
	}
}

// TestSetupAllocationBudget is the setup-phase sibling of
// TestEngineRoundsAllocationFree: with a warm state pool, a full run —
// node construction included — must cost O(1) slab allocations, not
// O(n) per-node ones. The budget is deliberately loose (the arena's
// chunk list grows by doubling, so a 10× larger graph may cost a few
// extra chunk allocations) but it is numerically tiny next to n: a
// regression back to per-node state (one alloc per node would be
// 100,000 here) trips it by three orders of magnitude. IDMatching is
// held to the same budget: its identifiers are plain words like every
// other message, so no round allocates per port.
func TestSetupAllocationBudget(t *testing.T) {
	disableGC(t)
	// Per-run allocation ceiling for the flat-state algorithms, valid
	// for both sizes. Measured: ≤35 sequential, ≤112 sharded at
	// n=100,000 (the sharded engine adds per-shard output buffers and
	// barrier bookkeeping).
	const budget = 256
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		alg  func() sim.Algorithm
	}{
		{"RegularOdd", func() sim.Algorithm { return core.RegularOdd{} }},
		{"PortOne", func() sim.Algorithm { return core.PortOne{} }},
		{"General/delta=3", func() sim.Algorithm { return core.NewGeneral(3) }},
		{"VertexCover3", func() sim.Algorithm { return core.VertexCover3{Delta: 3} }},
		{"IDMatching", func() sim.Algorithm { return core.IDMatching{} }},
	}
	engines := []struct {
		name string
		run  func(*graph.Graph, sim.Algorithm, ...sim.Option) (*sim.Result, error)
	}{
		{"sequential", sim.RunSequential},
		{"sharded", func(g *graph.Graph, a sim.Algorithm, opts ...sim.Option) (*sim.Result, error) {
			return sim.RunSharded(g, a, append(opts, sim.WithShards(4))...)
		}},
	}
	for _, n := range []int{10_000, 100_000} {
		g := gen.MustRandomRegular(rng, n, 3)
		for _, tc := range cases {
			for _, e := range engines {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, tc.name, e.name), func(t *testing.T) {
					// Warm-up run: fills the pool so the measured run
					// reuses every slab and arena chunk.
					if _, err := e.run(g, tc.alg()); err != nil {
						t.Fatal(err)
					}
					var err error
					allocs := testing.AllocsPerRun(1, func() {
						_, err = e.run(g, tc.alg())
					})
					if err != nil {
						t.Fatal(err)
					}
					if allocs > budget {
						t.Errorf("full run allocated %.0f times, budget %d — setup is no longer O(1) slabs", allocs, budget)
					}
				})
			}
		}
	}
}
