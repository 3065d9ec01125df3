package core

import (
	"sync"

	"eds/internal/graph"
	"eds/internal/sim"
)

// The paper's algorithms have deterministic round schedules that depend
// only on the node's degree and the family parameter Δ, so a protocol
// compiles once into a program — a fixed list of parametric steps over
// a plain state struct — and every node of the same (algorithm, degree)
// shares that one compiled program. This replaces the earlier
// scriptNode design, which captured each node's state in per-step
// closures: ~2 heap allocations per step per *node* (a 3-regular
// RegularOdd node cost ~109) versus one program per *shape* here. Node
// state lives in a value slab and its slices come from the engine's
// StateArena, so constructing a run is O(1) allocations per shard and,
// once the pooled arenas are warm, zero.

// pstep is one synchronous round of a program: send writes the round's
// outgoing messages into a degree-length buffer that arrives all-zero
// (0 entries are empty messages; a nil send is a silent round), recv
// consumes the round's inbox. The buffer is engine-owned — send must
// not retain it or any subslice past its return (the outboxalias
// analyzer enforces this mechanically). Steps operate on the state
// through a pointer so one pstep value serves every node.
type pstep[S any] struct {
	send func(st *S, buf []sim.Message)
	recv func(st *S, inbox []sim.Message)
}

// program is one compiled protocol: the step schedule, an optional
// state initialiser, and the output projection. Programs are built once
// per (algorithm, degree) shape through cachedProgram and shared by
// every node and every run, so they must be immutable after build and
// their steps must keep all mutable state in *S.
type program[S any] struct {
	steps []pstep[S]
	// init prepares a node's zeroed state: carving slices from the
	// engine-owned arena and setting non-zero sentinel fields.
	init func(st *S, deg int, arena *sim.StateArena)
	// output appends the node's chosen 1-based ports to dst.
	output func(st *S, deg int, dst []int) []int
}

// progNode drives one node through a program; the node stops when the
// schedule is exhausted. Nodes are allocated in per-shard slabs by
// buildProgNodes, so they are cheap values: a program pointer, two
// ints, and the inline state struct.
type progNode[S any] struct {
	prog *program[S]
	deg  int
	pc   int
	st   S
}

var _ sim.Node = (*progNode[struct{}])(nil)

// SendInto implements sim.Node: the engines hand progNode its outbox
// window directly, so a steady-state round of every compiled algorithm
// allocates nothing.
func (n *progNode[S]) SendInto(round int, buf []sim.Message) {
	if send := n.prog.steps[n.pc].send; send != nil {
		send(&n.st, buf)
	}
}

func (n *progNode[S]) Receive(round int, inbox []sim.Message) {
	if recv := n.prog.steps[n.pc].recv; recv != nil {
		recv(&n.st, inbox)
	}
	n.pc++
}

func (n *progNode[S]) Done() bool { return n.pc >= len(n.prog.steps) }

// AppendOutput implements sim.Node, writing the chosen ports straight
// onto the engines' flat output buffer.
func (n *progNode[S]) AppendOutput(dst []int) []int {
	if n.prog.output == nil {
		return dst
	}
	return n.prog.output(&n.st, n.deg, dst)
}

// buildProgNodes implements sim.Algorithm.BuildNodes for compiled
// algorithms: one value slab for the whole [lo, hi) range (the single
// per-shard allocation), per-node state carved from the shard's arena,
// programs resolved through prog with a last-degree memo so regular
// graphs do one cache lookup per shard instead of one per node.
func buildProgNodes[S any](g *graph.Graph, lo, hi int, arena *sim.StateArena, nodes []sim.Node, prog func(deg int) *program[S]) {
	slab := make([]progNode[S], hi-lo)
	lastDeg := -1
	var lastProg *program[S]
	for i := range slab {
		n := &slab[i]
		n.deg = g.Deg(lo + i)
		if n.deg != lastDeg {
			lastDeg = n.deg
			lastProg = prog(n.deg)
		}
		n.prog = lastProg
		if n.prog.init != nil {
			n.prog.init(&n.st, n.deg, arena)
		}
		nodes[i] = n
	}
}

// appendChosen appends the 1-based ports whose flag is set.
func appendChosen(dst []int, chosen []bool) []int {
	for idx, c := range chosen {
		if c {
			dst = append(dst, idx+1)
		}
	}
	return dst
}

// progKey identifies one compiled program: the algorithm's Name (which
// encodes every behaviour-affecting parameter — e.g. Δ, SkipPruning)
// plus the degree for algorithms whose schedule is degree-dependent
// (degree-independent programs use deg 0).
type progKey struct {
	kind string
	deg  int
}

// programCache memoizes compiled programs for the life of the process.
// Programs are immutable and state-free, so sharing them across
// algorithm values, runs, and goroutines is safe; losing a LoadOrStore
// race only wastes one build.
var programCache sync.Map // progKey -> *program[S]

// cachedProgram returns the program for (kind, deg), building it at
// most once per process. It is deliberately a free function — the
// Algorithm methods that need programs call it rather than touching
// programCache themselves, keeping the cache access out of the
// algorithm determinism surface (the compiled programs are pure; the
// cache is invisible to the protocol).
func cachedProgram[S any](kind string, deg int, build func() *program[S]) *program[S] {
	key := progKey{kind: kind, deg: deg}
	if p, ok := programCache.Load(key); ok {
		return p.(*program[S])
	}
	p, _ := programCache.LoadOrStore(key, build())
	return p.(*program[S])
}
