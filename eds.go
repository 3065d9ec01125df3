// Package eds is a Go implementation of Jukka Suomela's "Distributed
// Algorithms for Edge Dominating Sets" (PODC 2010): deterministic
// distributed approximation of minimum edge dominating sets in anonymous
// port-numbered networks, with the paper's tight upper bounds implemented
// as runnable message-passing algorithms and its matching lower-bound
// constructions implemented as adversarial inputs.
//
// The package is a facade over the implementation packages:
//
//   - build port-numbered graphs with NewBuilder / FromUndirected, or
//     generate classic and random families via the helpers below;
//   - pick an algorithm with PortOne, RegularOdd, General, or let
//     ForGraph choose the one with the optimal guarantee for your graph;
//   - execute with Run (deterministic sequential engine), RunSharded
//     (flat-buffer engine sharded across the CPUs — the fast path for
//     large graphs), or RunAuto (picks one of the two by graph size).
//     Both engines return identical results on every input;
//     internal/sim's cross-engine equivalence suite enforces it;
//   - check feasibility and quality with IsEdgeDominatingSet,
//     MinimumEdgeDominatingSet, and TightRatio.
//
// A minimal session:
//
//	g := eds.Cycle(12)                     // 2-regular, anonymous
//	alg, _ := eds.ForGraph(g)              // PortOne: tight 4-2/d = 3
//	d, res, _ := eds.Run(g, alg)
//	fmt.Println(d.Count(), "edges in", res.Rounds, "round(s)")
package eds

import (
	"context"
	"fmt"
	"math/rand"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/ratio"
	"eds/internal/sim"
	"eds/internal/spec"
	"eds/internal/verify"
)

// Core types, re-exported from the implementation packages.
type (
	// Graph is an immutable port-numbered graph (Section 2.1 of the
	// paper); it may be a multigraph.
	Graph = graph.Graph
	// Builder assembles a port-numbered graph, either edge by edge or
	// port by port.
	Builder = graph.Builder
	// Port identifies port Num (1-based) of node Node.
	Port = graph.Port
	// Edge is one edge, identified by the two ports it connects.
	Edge = graph.Edge
	// EdgeSet is a set of edges of one particular graph.
	EdgeSet = graph.EdgeSet
	// Algorithm is a distributed algorithm in the port-numbering model:
	// BuildNodes constructs whole node ranges at once, with per-node
	// state carved from an engine-owned StateArena (see CONTRIBUTING.md
	// and the arenaalias analyzer).
	Algorithm = sim.Algorithm
	// Node is one node's state machine: SendInto writes the round's
	// outgoing messages into an engine-owned buffer that must not be
	// retained past the call, Receive consumes the incoming ones, and
	// Output marks the chosen ports in that buffer once after the last
	// round, from which the engine builds the edge set.
	Node = sim.Node
	// Message is one message on one port: a uint64 word whose meaning
	// the algorithm defines; 0 means "no message".
	Message = sim.Message
	// StateArena is the engines' bump allocator for per-node algorithm
	// state, recycled with the pooled run state.
	StateArena = sim.StateArena
	// Timings is the per-run wall-clock split (setup, rounds, outputs)
	// recorded by WithTimings.
	Timings = sim.Timings
	// Result carries the statistics of one execution and its edge set
	// (Outputs), the one the Run functions return.
	Result = sim.Result
	// Option customises an execution (context, round budget, shards).
	Option = sim.Option
	// Ratio is an exact rational approximation ratio.
	Ratio = ratio.R
)

// Execution errors, re-exported from the engine package.
var (
	// ErrRoundLimit is returned when a run exceeds its round budget.
	ErrRoundLimit = sim.ErrRoundLimit
	// ErrCanceled is returned when a run attached to a context is
	// canceled or times out; the error also wraps context.Canceled or
	// context.DeadlineExceeded accordingly.
	ErrCanceled = sim.ErrCanceled
)

// WithContext makes a run cancellable: every engine polls the context at
// its round barriers and returns an error wrapping ErrCanceled when it
// is canceled or its deadline passes.
func WithContext(ctx context.Context) Option { return sim.WithContext(ctx) }

// WithMaxRounds overrides the default round budget.
func WithMaxRounds(n int) Option { return sim.WithMaxRounds(n) }

// WithShards sets the worker count of the sharded engine (<= 0 selects
// one shard per CPU). Run ignores it.
func WithShards(p int) Option { return sim.WithShards(p) }

// WithTimings makes the engine record its setup/rounds/outputs
// wall-clock split into *t. Diagnostic only: Results stay identical.
func WithTimings(t *Timings) Option { return sim.WithTimings(t) }

// NewBuilder returns a builder for a graph with n isolated nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromUndirected builds a simple port-numbered graph from an undirected
// edge list, assigning ports in edge order.
func FromUndirected(n int, edges [][2]int) (*Graph, error) {
	return graph.FromUndirected(n, edges)
}

// Graph generators.

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *Graph { return gen.Cycle(n) }

// Path returns the path on n nodes.
func Path(n int) *Graph { return gen.Path(n) }

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return gen.Complete(n) }

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *Graph { return gen.CompleteBipartite(a, b) }

// Hypercube returns the dim-dimensional hypercube.
func Hypercube(dim int) *Graph { return gen.Hypercube(dim) }

// Torus returns the rows x cols toroidal grid (4-regular).
func Torus(rows, cols int) *Graph { return gen.Torus(rows, cols) }

// RandomRegular returns a random simple d-regular graph on n nodes.
func RandomRegular(rng *rand.Rand, n, d int) (*Graph, error) {
	return gen.RandomRegular(rng, n, d)
}

// RandomBoundedDegree returns a random simple graph with maximum degree
// at most maxDeg; each candidate edge is kept with probability p.
func RandomBoundedDegree(rng *rand.Rand, n, maxDeg int, p float64) *Graph {
	return gen.RandomBoundedDegree(rng, n, maxDeg, p)
}

// Algorithms.

// PortOne returns the Theorem 3 algorithm: one round, factor 4 - 2/d on
// d-regular graphs (optimal for even d).
func PortOne() Algorithm { return core.PortOne{} }

// RegularOdd returns the Theorem 4 algorithm: O(d²) rounds, factor
// 4 - 6/(d+1) on d-regular graphs with odd d (optimal).
func RegularOdd() Algorithm { return core.RegularOdd{} }

// General returns the Theorem 5 family A(Δ) for graphs of maximum degree
// Δ >= 2: O(Δ²) rounds, factor 4 - 1/k for Δ in {2k, 2k+1} (optimal).
func General(delta int) Algorithm { return core.NewGeneral(delta) }

// AllEdges returns the trivial algorithm selecting every edge — optimal
// for maximum degree 1.
func AllEdges() Algorithm { return core.AllEdges{} }

// ForGraph picks the algorithm with the best worst-case guarantee for g:
// AllEdges for max degree <= 1, PortOne for even-regular, RegularOdd for
// odd-regular, and General(Δ) otherwise. The returned ratio is the tight
// worst-case guarantee.
func ForGraph(g *Graph) (Algorithm, Ratio, error) {
	alg, r := spec.ForGraph(g)
	return alg, r, nil
}

// Run executes the algorithm on the deterministic sequential engine and
// returns the selected edge set. Options (WithContext, WithMaxRounds)
// customise the execution.
func Run(g *Graph, a Algorithm, opts ...Option) (*EdgeSet, *Result, error) {
	return runWith(sim.RunSequential, g, a, opts...)
}

// RunSharded executes the algorithm on the sharded flat-buffer engine:
// nodes are partitioned across the CPUs and messages travel through a
// precomputed flat routing table with no channels and no per-round
// allocation. The result is always identical to Run's; on large graphs
// this is the fastest engine.
func RunSharded(g *Graph, a Algorithm, opts ...Option) (*EdgeSet, *Result, error) {
	return runWith(sim.RunSharded, g, a, opts...)
}

// RunAuto picks an engine by setup volume (sim.EngineChoice: the
// sequential engine for small graphs or single-CPU processes, the
// sharded engine once the port count crosses sim.AutoShardedPorts on
// multi-core) and returns the selected edge set. Both engines return
// identical results, so the choice affects only the wall-clock time.
func RunAuto(g *Graph, a Algorithm, opts ...Option) (*EdgeSet, *Result, error) {
	return runWith(sim.RunAuto, g, a, opts...)
}

func runWith(run func(*graph.Graph, sim.Algorithm, ...sim.Option) (*sim.Result, error), g *Graph, a Algorithm, opts ...Option) (*EdgeSet, *Result, error) {
	res, err := run(g, a, opts...)
	if err != nil {
		return nil, nil, err
	}
	return res.Outputs, res, nil
}

// Verification and baselines.

// IsEdgeDominatingSet reports whether s dominates every edge of g.
func IsEdgeDominatingSet(g *Graph, s *EdgeSet) bool {
	return verify.IsEdgeDominatingSet(g, s)
}

// IsMaximalMatching reports whether s is a maximal matching of g.
func IsMaximalMatching(g *Graph, s *EdgeSet) bool {
	return verify.IsMaximalMatching(g, s)
}

// MinimumEdgeDominatingSet computes an exact minimum edge dominating set.
// It is exponential; intended for small instances (tens of edges).
func MinimumEdgeDominatingSet(g *Graph) *EdgeSet {
	return verify.MinimumEdgeDominatingSet(g)
}

// GreedyMaximalMatching returns the deterministic greedy maximal
// matching, a centralized 2-approximation baseline.
func GreedyMaximalMatching(g *Graph) *EdgeSet {
	return verify.GreedyMaximalMatching(g)
}

// TightRatio returns the paper's tight approximation ratio for the graph
// family g belongs to (Table 1).
func TightRatio(g *Graph) Ratio {
	_, r := spec.ForGraph(g)
	return r
}

// MeasuredRatio returns |d| / |opt| as an exact rational, where opt is
// computed exactly (exponential; small instances only).
func MeasuredRatio(g *Graph, d *EdgeSet) (Ratio, error) {
	opt := verify.MinimumEdgeDominatingSet(g)
	if opt.Count() == 0 {
		if d.Count() == 0 {
			return ratio.FromInt(1), nil
		}
		return Ratio{}, fmt.Errorf("eds: graph has no edges but %d were selected", d.Count())
	}
	return ratio.New(int64(d.Count()), int64(opt.Count())), nil
}
