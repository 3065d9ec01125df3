package sim

import (
	"fmt"
	"runtime"

	"eds/internal/graph"
)

// AutoShardedPorts is the port count (sum of degrees ≈ nodes×degree)
// at which engine auto-selection (eds.RunAuto, edsrun -engine auto, the
// harness scaling studies) switches from the sequential engine to
// the sharded engine. Ports, not nodes, measure the work the sharded
// engine parallelizes — node construction, the send phase and output
// collection are linear in ports, delivery in messages — while its
// overhead is per-round barriers and per-run worker spawns, which are
// independent of graph size. An earlier node-count threshold (4096)
// mis-ranked dense graphs small and sparse graphs large.
//
// Measured speedup of RunSharded at P = 2 over RunSequential
// (perfbench's sim.sharded_speedup.F in traced runs on a 2-CPU Intel
// Xeon VM, Go 1.24): in serve-cold, over seeds 1–3, 0.78–0.88 on trees
// of 1.6k–3.2k ports, 0.94–1.32 on 3-regular graphs of 6k–18k ports and
// 1.06–1.44 on 4-regular graphs of 16k–32k ports; in solve-large, over
// seeds 1–2, 1.55–1.58 on a tree of 60k ports, 1.99–2.07 on a 3-regular
// graph of 600k ports and 2.02–2.25 on a torus of 1.96M ports.
const AutoShardedPorts = 16384

// EngineChoice is RunAuto's policy as a pure function of the run's
// setup volume (n nodes, ports = sum of degrees) and the available
// parallelism: "sequential" when only one CPU is usable or the graph is
// too small for the barrier overhead to pay off, "sharded" otherwise.
// Exported so the decision boundary is pinned by a table-driven test
// instead of re-implemented by callers.
func EngineChoice(n, ports, procs int) string {
	if procs <= 1 || ports < AutoShardedPorts {
		return "sequential"
	}
	return "sharded"
}

// RunAuto picks an engine by setup volume via EngineChoice — the
// sequential engine for small graphs or single-CPU processes, the
// sharded engine for large graphs on multi-core — and is the single
// home of that policy for the facade, the CLI, the server, and the
// harness studies. Both engines return identical Results and honour
// WithRoundHook and WithContext, so the choice affects only wall-clock
// time.
func RunAuto(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	if EngineChoice(g.N(), g.NumPorts(), runtime.GOMAXPROCS(0)) == "sharded" {
		return RunSharded(g, a, opts...)
	}
	return RunSequential(g, a, opts...)
}

// Engines returns the named engine entry points, the single registry the
// harness studies and tooling resolve engine names against.
func Engines() map[string]func(*graph.Graph, Algorithm, ...Option) (*Result, error) {
	return map[string]func(*graph.Graph, Algorithm, ...Option) (*Result, error){
		"sequential": RunSequential,
		"sharded":    RunSharded,
	}
}

// WithShards sets the number of worker shards used by RunSharded. Values
// <= 0 select runtime.GOMAXPROCS(0). The shard count never affects the
// Result, only the parallelism.
func WithShards(p int) Option {
	return func(c *config) { c.shards = p }
}

// Worker phase codes sent over the runState.work channel. phaseStop ends
// the pool without closing the channel, so a pooled channel survives
// into the next run.
const (
	phaseStop = iota
	phaseInit
	phaseSend
	phaseRecv
	phaseOutput
)

// shardedRun is the per-run coordination of the round loop shared by
// RunSequential and RunSharded. With one shard the coordinator runs
// every phase inline; with p > 1 shards, p persistent workers spawned
// once at run start loop over phase tokens, so a round costs channel
// operations only — no goroutine spawns, no closures, no allocation.
// The coordinator writes round between barriers, while every worker is
// parked on the work channel; the channel send/receive pair orders
// those writes before the workers' reads.
type shardedRun struct {
	st      *runState
	g       *graph.Graph
	a       Algorithm
	off     []int32
	route   []int32
	p       int
	round   int
	outputs [][]int // phaseOutput destination, set before the barrier
}

// worker is one shard's loop. It exits on phaseStop, signalling idle
// first; after that signal it never touches shared state again, so the
// coordinator's stop barrier doubles as the release fence for the
// pooled buffers.
func (r *shardedRun) worker(s int) {
	for {
		phase := <-r.st.work[s]
		if phase == phaseStop {
			r.st.idle <- struct{}{}
			return
		}
		r.runPhase(s, phase)
		r.st.idle <- struct{}{}
	}
}

// runPhase runs one phase on shard s.
func (r *shardedRun) runPhase(s, phase int) {
	lo, hi := r.st.bounds[s], r.st.bounds[s+1]
	switch phase {
	case phaseInit:
		r.initPhase(s, lo, hi)
	case phaseSend:
		r.sendPhase(s, lo, hi)
	case phaseRecv:
		r.recvPhase(s, lo, hi)
	case phaseOutput:
		r.outputPhase(s, lo, hi)
	}
}

// barrier runs one phase on every shard: inline on the coordinator
// when there is a single shard, otherwise on the workers, waiting for
// all of them.
func (r *shardedRun) barrier(phase int) {
	if r.p == 1 {
		r.runPhase(0, phase)
		return
	}
	for i := 0; i < r.p; i++ {
		r.st.work[i] <- phase
	}
	for i := 0; i < r.p; i++ {
		<-r.st.idle
	}
}

// shardErr returns the first shard error in shard order. Shards are
// contiguous ascending ranges, so that is the lowest misbehaving node:
// the same error for every shard count.
func (r *shardedRun) shardErr() error {
	for s := 0; s < r.p; s++ {
		if err := r.st.stats[s].err; err != nil {
			return err
		}
	}
	return nil
}

// initPhase is the parallel prologue: it builds the shard's nodes —
// every shard carves its state from its own arena concurrently, so
// setup scales with P — checks that BuildNodes set each one, and
// retires nodes that are born done (zero-round algorithms).
func (r *shardedRun) initPhase(s, lo, hi int) {
	st := r.st
	r.a.BuildNodes(r.g, lo, hi, &st.arenas[s], st.nodes[lo:hi:hi])
	for v := lo; v < hi; v++ {
		if st.nodes[v] == nil {
			st.stats[s].err = fmt.Errorf("sim: algorithm %q: BuildNodes left node %d nil", r.a.Name(), v)
			return
		}
	}
	pending := 0
	for v := lo; v < hi; v++ {
		if st.nodes[v].Done() {
			st.done[v] = true
		} else {
			pending++
		}
	}
	st.stats[s].pending = pending
}

// outputPhase collects, sorts, and validates the shard's node outputs
// into the coordinator's outputs slice. Ranges are disjoint and each
// call appends to its own flat buffer, so the epilogue parallelizes
// like the prologue.
func (r *shardedRun) outputPhase(s, lo, hi int) {
	if err := collectOutputsRange(r.g, r.a, r.st.nodes, lo, hi, r.outputs); err != nil {
		r.st.stats[s].err = err
	}
}

// sendPhase first sets the slots the shard delivered in the previous
// round back to 0 — the only nonzero ones, so every outbox window
// arrives all-zero and every silent port's inbox slot reads 0 — then
// writes the shard's outbox windows and delivers each nonzero message
// at once (inbox[route[j]] = outbox[j]), listing j for the next round.
// The inbox slots may be other shards': that is race-free because no
// shard reads the inbox in this phase and each slot has one sender.
func (r *shardedRun) sendPhase(s, lo, hi int) {
	st := r.st
	list := st.delivered[r.off[lo]:r.off[hi]]
	for _, j := range list[:st.stats[s].sent] {
		st.outbox[j] = 0
		st.inbox[r.route[j]] = 0
	}
	sent := 0
	for v := lo; v < hi; v++ {
		if st.done[v] {
			continue
		}
		first, end := r.off[v], r.off[v+1]
		slot := st.outbox[first:end:end]
		st.nodes[v].SendInto(r.round, slot)
		for i, m := range slot {
			if m != 0 {
				j := first + int32(i)
				st.inbox[r.route[j]] = m
				list[sent] = j
				sent++
			}
		}
	}
	st.stats[s].sent = sent
}

// recvPhase delivers each live node's contiguous inbox window — already
// filled by the send phase — and retires nodes that report Done.
func (r *shardedRun) recvPhase(s, lo, hi int) {
	st := r.st
	pending := 0
	for v := lo; v < hi; v++ {
		if st.done[v] {
			continue
		}
		st.nodes[v].Receive(r.round, st.inbox[r.off[v]:r.off[v+1]:r.off[v+1]])
		if st.nodes[v].Done() {
			st.done[v] = true
		} else {
			pending++
		}
	}
	st.stats[s].pending = pending
}

// RunSharded executes the algorithm with P worker shards over the graph's
// flat routing table. Nodes are partitioned into contiguous ranges
// balanced by port count; each round runs two phases separated by a
// channel barrier:
//
//	send:    every shard sets its previous round's delivered slots back
//	         to 0, writes its nodes' outgoing messages into a flat
//	         outbox indexed by global port number, and delivers each
//	         nonzero one into its partner's inbox slot, listing the port;
//	receive: every shard hands each live node its contiguous inbox
//	         slice and retires nodes that report Done.
//
// A silent port is never touched, so a round costs O(messages), not
// O(ports), outside the nodes themselves. The prologue and epilogue
// are parallel too: each shard's nodes are built by that shard's
// worker (Algorithm.BuildNodes) from a per-shard StateArena, and each
// shard collects and validates its own outputs.
//
// All buffers come from a pooled runState and the P workers persist
// for the whole run, so a steady-state round performs zero allocations:
// nodes write straight into the outbox (Node.SendInto), and the
// barriers are plain channel operations. With P = 1 the phases run
// inline, exactly as in RunSequential; results are bit-identical to
// RunSequential for every shard count.
//
// WithRoundHook is honoured: the hook observes the flat outbox through
// per-node subslices between the send and receive phases, where no
// worker is running (retired nodes' slots are 0).
func RunSharded(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	p := c.shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > g.N() {
		p = g.N()
	}
	if p < 1 {
		p = 1
	}
	return runShards(g, a, p, &c)
}

// runShards is the one round loop behind RunSequential and RunSharded:
// the run over p shards, the phases inline when p is 1.
func runShards(g *graph.Graph, a Algorithm, p int, c *config) (*Result, error) {
	if err := c.ctxErr(a); err != nil {
		return nil, err
	}
	n := g.N()
	clk := startClock(c)
	st := acquireState(n, g.NumPorts(), p)
	// Release only after the workers have stopped: defers run in LIFO
	// order, so the stop barrier deferred below fences every worker off
	// the buffers before they return to the pool — on every exit path,
	// including cancellation and round-limit errors.
	defer st.release()
	shardBounds(st.bounds, g.PortOffsets(), n, p)

	r := &shardedRun{st: st, g: g, a: a, off: g.PortOffsets(), route: g.RoutingTable(), p: p}
	if p > 1 {
		for s := 0; s < p; s++ {
			go r.worker(s)
		}
		defer r.barrier(phaseStop)
	}

	// Parallel prologue: every shard builds its nodes at once and
	// retires the born-done ones.
	r.barrier(phaseInit)
	if err := r.shardErr(); err != nil {
		return nil, err
	}

	var hookView [][]Message
	if c.roundHook != nil {
		hookView = st.hookRows(r.off, n)
	}

	clk.tickSetup()
	res := &Result{}
	for round := 0; ; round++ {
		if err := c.ctxErr(a); err != nil {
			return nil, err
		}
		pending := 0
		for s := 0; s < p; s++ {
			pending += st.stats[s].pending
		}
		if pending == 0 {
			break
		}
		if round >= c.maxRounds {
			return nil, roundLimit(a, round)
		}
		res.Rounds = round + 1

		r.round = round
		r.barrier(phaseSend)
		for s := 0; s < p; s++ {
			res.Messages += st.stats[s].sent
		}
		if c.roundHook != nil {
			c.roundHook(round, hookView)
		}

		r.barrier(phaseRecv)
	}
	clk.tickRounds()

	// Parallel epilogue: every shard collects and validates its own
	// output range; shardErr reports the first per-shard error in shard
	// order (lowest bad node wins, whatever the shard count).
	r.outputs = make([][]int, n)
	r.barrier(phaseOutput)
	if err := r.shardErr(); err != nil {
		return nil, err
	}
	res.Outputs = r.outputs
	clk.tickOutputs()
	return res, nil
}

// shardBounds partitions the nodes into p contiguous ranges balanced by
// port count (the unit of per-round work), writing p+1 boundaries into
// bounds. Trailing shards may be empty on degenerate inputs; that only
// idles a worker.
func shardBounds(bounds []int, off []int32, n, p int) {
	total := int(off[n])
	if total == 0 {
		// Port-free graph (isolated nodes): balance by node count.
		for s := 0; s <= p; s++ {
			bounds[s] = s * n / p
		}
		return
	}
	bounds[0] = 0
	v := 0
	for s := 1; s < p; s++ {
		target := total * s / p
		for v < n && int(off[v+1]) <= target {
			v++
		}
		bounds[s] = v
	}
	bounds[p] = n
}
