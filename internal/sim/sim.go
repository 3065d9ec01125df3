// Package sim executes deterministic distributed algorithms on
// port-numbered graphs under the synchronous model of Section 2.2 of the
// paper: in every round each node (i) computes, (ii) sends one message to
// each of its ports, and (iii) receives one message from each of its
// ports, routed by the involution p.
//
// Three engines are provided, all required to produce identical Results
// on every input (a cross-engine property suite in engines_test.go
// enforces it):
//
//   - RunSharded partitions the nodes into P contiguous shards over the
//     graph's flat routing table (graph.RoutingTable) and runs the round
//     loop over flat message arrays: no per-round allocation, one
//     channel barrier per phase. Each message is delivered when it is
//     sent — the send phase writes it into the partner's inbox slot and
//     lists the port in a per-shard delivery list, and the next send
//     phase sets only the listed slots back to 0 — so a round costs
//     O(messages), not O(ports), in the routing layer. It is the
//     fastest engine on large graphs and the scaling path for
//     million-node runs; see sharded.go.
//   - RunSequential is the deterministic single-threaded reference and
//     the engine of choice for debugging: the same round loop on one
//     shard, its phases run inline with no goroutine and no channel.
//   - RunConcurrent runs one goroutine per node and routes messages over
//     capacity-1 channels — the natural Go embedding of the model, useful
//     as a semantic stress test of the round structure. Its per-node
//     goroutines and channels make it the slowest engine on large graphs.
//
// WithRoundHook (traces, figures) is honoured by the sequential and
// sharded engines; the concurrent engine has no barrier window in which
// a consistent whole-round outbox exists, so it rejects hooked runs
// eagerly with ErrHookUnsupported instead of silently dropping the
// hook. WithContext makes any engine cancellable: the context is polled
// at every round barrier and a canceled or expired run returns an error
// wrapping ErrCanceled plus the context's cause, with no goroutine left
// behind.
//
// A node is retired as soon as Done reports true after a Receive: no
// engine calls Send or Receive on a retired node, so mixed-termination
// schedules (e.g. degree-dependent scripts on irregular graphs) execute
// identically everywhere.
package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"eds/internal/graph"
)

// Message is the content sent over one port in one round: one machine
// word. 0 means the empty message; only nonzero messages are counted in
// Result.Messages. The engines look at nothing else — what the other
// values mean is the algorithm's own encoding (the paper's algorithms
// pack a small kind tag and its fields, see internal/core). A word, not
// an interface, because the paper's messages are CONGEST-sized: a mark,
// a flag, a (port, degree) label or one node identifier. So no engine
// buffer holds a pointer, and writing a message never allocates.
type Message uint64

// Node is the state machine one node runs. The engine calls Send, then
// delivers the round's incoming messages via Receive; after Receive it
// polls Done. Once Done reports true the node is never called again and
// Output must return the node's chosen ports (the set X(v) of the paper,
// 1-based port numbers).
type Node interface {
	// Send returns the outgoing message for each port; index 0 is port 1.
	// The returned slice must have exactly one entry per port.
	Send(round int) []Message
	// Receive delivers the incoming message of each port for this round.
	// inbox is engine-owned and read-only: engines reuse it across rounds
	// and only rewrite the slots that carry messages.
	Receive(round int, inbox []Message)
	// Done reports whether the node has stopped.
	Done() bool
	// Output returns the chosen port numbers once Done is true.
	Output() []int
}

// BufferedNode is the optional zero-allocation extension of Node. Every
// engine type-asserts each node once at run start; a node implementing
// SendInto has its outgoing messages written straight into the
// engine-owned outbox window for that node — no per-round []Message
// allocation, no boxing copy — and its Send method is never called.
// Nodes that do not implement it keep working through Send unchanged.
//
// The contract of SendInto mirrors Send with the buffer inverted:
//
//   - buf has exactly one entry per port (index 0 is port 1) and every
//     entry is 0 on entry; write the round's nonzero messages and
//     leave empty ports untouched.
//   - buf is a view of an engine buffer that is recycled at the next
//     round barrier. Retaining buf, a reslice of it, or any alias past
//     the call corrupts later rounds on the buffer-reusing engines —
//     exactly the divergence class the outboxalias analyzer
//     (internal/lint) flags mechanically. Retaining the message values
//     written into it is always fine.
//
// All paper algorithms in internal/core implement BufferedNode; a
// Message is a plain word, so writing one allocates nothing, and a
// full round of theirs allocates nothing on the sharded engine.
type BufferedNode interface {
	Node
	// SendInto writes the outgoing message for each port into buf, which
	// arrives all-zero with exactly one entry per port.
	SendInto(round int, buf []Message)
}

// Algorithm is a factory of node state machines. In the port-numbering
// model a starting node knows nothing but its own degree, which is
// therefore the only argument.
type Algorithm interface {
	// Name identifies the algorithm in logs and error messages.
	Name() string
	// NewNode returns the initial state of a node with the given degree.
	NewNode(degree int) Node
}

// BulkAlgorithm is the optional bulk-construction extension of
// Algorithm, the setup-phase analogue of what BufferedNode is to Send.
// Every engine type-asserts the algorithm once at run start; a
// bulk-capable algorithm has entire node ranges built in one call, with
// per-node state carved from an engine-owned StateArena in O(1) slabs
// instead of one heap allocation per node. Algorithms that do not
// implement it keep working through NewNode unchanged.
//
// The contract of BuildNodes:
//
//   - nodes has exactly hi-lo entries; BuildNodes must set every one
//     (nodes[i] becomes graph node lo+i). A nil entry fails the run.
//   - the built nodes must behave identically to NewNode(g.Deg(v))
//     nodes — the cross-engine equivalence suite runs both paths.
//   - state carved from arena is engine-owned and dies with the run
//     (the arena is rewound when the pooled run state is reacquired);
//     never store it in the Algorithm value, a package-level variable,
//     a channel, or anything else that outlives the run. The arenaalias
//     analyzer (internal/lint) flags retention mechanically.
//   - concurrent calls on disjoint [lo, hi) ranges with distinct arenas
//     must be safe: the sharded engine builds all shards in parallel.
//     In particular a BulkAlgorithm must not derive node identity from
//     construction *order* (a shared counter); use the node index.
type BulkAlgorithm interface {
	Algorithm
	// BuildNodes constructs the nodes of the half-open range [lo, hi),
	// carving their state from arena; nodes[i] is node lo+i.
	BuildNodes(g *graph.Graph, lo, hi int, arena *StateArena, nodes []Node)
}

// OutputAppender is the optional zero-allocation extension of Output.
// The engines' output collectors gather all of a node range's chosen
// ports into one flat buffer; a node implementing AppendOutput writes
// its ports straight onto that buffer instead of materialising a
// per-node slice for Output to return.
type OutputAppender interface {
	Node
	// AppendOutput appends the node's chosen ports (unsorted is fine)
	// to dst and returns the extended slice, exactly once Done is true.
	AppendOutput(dst []int) []int
}

// Result summarises one execution.
type Result struct {
	// Outputs[v] is the sorted set of ports chosen by node v.
	Outputs [][]int
	// Rounds is the number of communication rounds until every node
	// stopped.
	Rounds int
	// Messages counts nonzero messages sent over the whole execution.
	Messages int
}

// ErrRoundLimit is returned when an execution exceeds the round budget,
// which for the paper's algorithms indicates a protocol bug.
var ErrRoundLimit = errors.New("sim: round limit exceeded")

// ErrCanceled is returned when a run attached to a context (WithContext)
// is canceled or exceeds its deadline. The returned error also wraps the
// context's cause, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) distinguish the two. Every
// engine checks the context at the same points — once on entry and once
// at the top of every round — so all engines report the identical error
// for the same execution.
var ErrCanceled = errors.New("sim: run canceled")

// ErrHookUnsupported is returned by an engine that cannot honour
// WithRoundHook. Today only the concurrent engine reports it: with one
// goroutine per node and messages parked in per-port channels, there is
// no moment at which a consistent whole-round outbox exists for a hook
// to observe. The error is returned eagerly — before any node state or
// goroutine is created — so a hooked run never silently loses its
// trace; use the sequential or sharded engine (or RunAuto, which only
// picks between those two) for traces and figures.
var ErrHookUnsupported = errors.New("sim: engine does not support round hooks")

const defaultMaxRounds = 100_000

type config struct {
	ctx       context.Context
	maxRounds int
	roundHook func(round int, sent [][]Message)
	shards    int
	timings   *Timings
}

// ctxErr reports the cancellation error to surface, or nil if the run's
// context (if any) is still live. The message is deterministic — no
// round counts or timestamps — so concurrent engines agree with the
// sequential reference byte for byte.
func (c *config) ctxErr(a Algorithm) error {
	if c.ctx == nil || c.ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w: algorithm %q: %w", ErrCanceled, a.Name(), context.Cause(c.ctx))
}

// Option customises an execution.
type Option func(*config)

// WithMaxRounds overrides the default round budget.
func WithMaxRounds(n int) Option {
	return func(c *config) { c.maxRounds = n }
}

// WithRoundHook installs a callback invoked after the send phase of every
// round with the full message matrix (sent[v][i-1] = message sent by v on
// port i). The sequential and sharded engines honour the hook — they
// present their flat outbox through per-node subslices and invoke the
// hook between the send and receive phases, where no worker is running —
// so traces and figures work at every graph scale. The concurrent engine
// does not support hooks (its messages never exist in one place) and
// returns ErrHookUnsupported when one is set. The hook must treat the
// matrix as read-only (the messages are already delivered, and the next
// send phase resets only the slots it delivered from) and must not
// retain it across rounds: the rows are views of a flat buffer that is
// recycled at the next barrier (the outboxalias analyzer in
// internal/lint enforces this mechanically).
func WithRoundHook(fn func(round int, sent [][]Message)) Option {
	return func(c *config) { c.roundHook = fn }
}

// Timings is the wall-clock split of one run, filled in by WithTimings:
// Setup covers run-state acquisition and node construction, Rounds the
// round loop, Outputs the collection and validation of the per-node
// port sets. On an error exit only the phases that completed are set.
type Timings struct {
	Setup   time.Duration
	Rounds  time.Duration
	Outputs time.Duration
}

// WithTimings makes the engine record its phase wall-clock split into
// *t. The split is diagnostic output, not part of the Result: it varies
// run to run while Results stay byte-identical.
func WithTimings(t *Timings) Option {
	return func(c *config) { c.timings = t }
}

// phaseClock times one engine's phases: each tick charges the time
// since the previous tick to one Timings slot. An unhooked run gets a
// clock with a nil target, making every call a no-op, so the engines
// tick unconditionally and pay nothing on the common path.
type phaseClock struct {
	t    *Timings
	last time.Time
}

func startClock(c *config) phaseClock {
	if c.timings == nil {
		return phaseClock{}
	}
	*c.timings = Timings{}
	return phaseClock{t: c.timings, last: time.Now()}
}

func (p *phaseClock) tickSetup() {
	if p.t != nil {
		now := time.Now()
		p.t.Setup += now.Sub(p.last)
		p.last = now
	}
}

func (p *phaseClock) tickRounds() {
	if p.t != nil {
		now := time.Now()
		p.t.Rounds += now.Sub(p.last)
		p.last = now
	}
}

func (p *phaseClock) tickOutputs() {
	if p.t != nil {
		now := time.Now()
		p.t.Outputs += now.Sub(p.last)
		p.last = now
	}
}

// WithContext attaches a context to the run. Every engine checks the
// context once on entry and once at the top of every round; when it is
// canceled or its deadline passes, the engine stops, releases all of its
// goroutines, and returns an error wrapping both ErrCanceled and the
// context's cause. A nil ctx is ignored.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

func buildConfig(opts []Option) config {
	c := config{maxRounds: defaultMaxRounds}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// malformedSend is the shared malformed-Send error, built identically by
// every engine so error parity holds byte for byte.
func malformedSend(a Algorithm, v, got, want int) error {
	return fmt.Errorf("sim: algorithm %q: node %d sent %d messages, want %d", a.Name(), v, got, want)
}

// roundLimit is the shared round-budget error, built identically by
// every engine.
func roundLimit(a Algorithm, round int) error {
	return fmt.Errorf("%w: algorithm %q still running after %d rounds", ErrRoundLimit, a.Name(), round)
}

// RunSequential executes the algorithm on g with the deterministic
// single-threaded reference engine: the sharded engine's round loop run
// inline on one shard, with no goroutine and no channel. It shares that
// loop's send-time delivery over the graph's flat routing view, its
// zero-allocation send path (BufferedNode) and its pooled run state;
// WithShards does not apply to it.
func RunSequential(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	return runShards(g, a, 1, &c)
}

// RunConcurrent executes the algorithm with one goroutine per node,
// messages travelling over capacity-1 channels, and a coordinator barrier
// aligning rounds. Its results are identical to RunSequential because each
// node's view is deterministic regardless of scheduling.
func RunConcurrent(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	if c.roundHook != nil {
		return nil, fmt.Errorf("%w: algorithm %q: the concurrent engine has no barrier window in which the outbox is globally consistent; run hooks on the sequential or sharded engine", ErrHookUnsupported, a.Name())
	}
	if err := c.ctxErr(a); err != nil {
		return nil, err
	}
	n := g.N()
	clk := startClock(&c)
	st := acquireState(n, 0, 0)
	defer st.release()
	nodes := st.nodes
	bulk, _ := a.(BulkAlgorithm)
	if err := st.buildNodes(g, a, bulk, 0, n, &st.arenas[0]); err != nil {
		return nil, err
	}
	// in[v][i-1] is the inbound channel of port (v, i). Capacity 1: a
	// round's message parks there until the owner consumes it.
	in := make([][]chan Message, n)
	for v := 0; v < n; v++ {
		in[v] = make([]chan Message, g.Deg(v))
		for i := range in[v] {
			in[v][i] = make(chan Message, 1)
		}
	}
	// start carries one signal per half-round: true = proceed with the
	// send (resp. receive) half, false = stop. Splitting the round lets
	// the coordinator abort a poisoned round after the send barrier, so
	// no Receive ever observes the substitute messages of a malformed
	// Send — the same abort point as the sequential and sharded engines.
	start := make([]chan bool, n)
	reports := make(chan int, n) // send half: nonzero count; receive half: completion
	// A malformed Send cannot abort the send half (peers' channels must
	// be filled to keep the half-round barrier alive), so the worker
	// records the error, substitutes empty messages, and the coordinator
	// fails the run at the barrier. The lowest node index wins so the
	// error is deterministic and identical to the sequential engine's.
	var (
		errMu   sync.Mutex
		errNode = -1
		sendErr error
	)
	recordErr := func(v int, err error) {
		errMu.Lock()
		if errNode == -1 || v < errNode {
			errNode, sendErr = v, err
		}
		errMu.Unlock()
	}
	takeErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return sendErr
	}
	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		start[v] = make(chan bool, 1)
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			node := nodes[v]
			buffered := st.buffered[v]
			deg := g.Deg(v)
			inbox := make([]Message, deg)
			// scratch is the worker's reusable outbox: retired rounds,
			// the SendInto fast path, and malformed-Send substitution all
			// fill it in place, so the steady state allocates nothing.
			scratch := make([]Message, deg)
			done := node.Done()
			round := 0
			for cont := range start[v] {
				if !cont {
					return
				}
				var out []Message
				sentCount := 0
				if !done {
					if buffered != nil {
						clear(scratch)
						buffered.SendInto(round, scratch)
						out = scratch
					} else {
						out = node.Send(round)
						if len(out) != deg {
							recordErr(v, malformedSend(a, v, len(out), deg))
							clear(scratch)
							out = scratch
						}
					}
					for _, m := range out {
						if m != 0 {
							sentCount++
						}
					}
				} else {
					clear(scratch)
					out = scratch
				}
				for i := 1; i <= deg; i++ {
					q := g.P(v, i)
					in[q.Node][q.Num-1] <- out[i-1]
				}
				reports <- sentCount
				// Receive gate: the coordinator aborts here when any
				// node's Send was malformed this round.
				if !<-start[v] {
					return
				}
				for i := 0; i < deg; i++ {
					inbox[i] = <-in[v][i]
				}
				if !done {
					node.Receive(round, inbox)
					done = node.Done()
				}
				round++
				reports <- 0
			}
		}(v)
	}
	stopAll := func() {
		for v := 0; v < n; v++ {
			start[v] <- false
		}
		wg.Wait()
	}
	clk.tickSetup()
	res := &Result{}
	for round := 0; ; round++ {
		// Same barrier as the other engines: the workers are parked at
		// the round-start gate, so stopAll's false signal releases them
		// all and no goroutine outlives the call.
		if err := c.ctxErr(a); err != nil {
			stopAll()
			return nil, err
		}
		allDone := true
		for v := 0; v < n; v++ {
			if !nodes[v].Done() {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		if round >= c.maxRounds {
			stopAll()
			return nil, roundLimit(a, round)
		}
		res.Rounds = round + 1
		for v := 0; v < n; v++ {
			start[v] <- true // send half
		}
		for i := 0; i < n; i++ {
			res.Messages += <-reports
		}
		if err := takeErr(); err != nil {
			// Workers are parked at the receive gate; stopAll's false
			// signal releases them there just as it does at round start.
			stopAll()
			return nil, err
		}
		for v := 0; v < n; v++ {
			start[v] <- true // receive half
		}
		for i := 0; i < n; i++ {
			<-reports
		}
	}
	stopAll()
	clk.tickRounds()
	outputs, err := collectOutputs(g, a, nodes)
	if err != nil {
		return nil, err
	}
	res.Outputs = outputs
	clk.tickOutputs()
	return res, nil
}

// collectOutputs gathers, sorts, and validates the per-node port sets.
func collectOutputs(g *graph.Graph, a Algorithm, nodes []Node) ([][]int, error) {
	outputs := make([][]int, len(nodes))
	if err := collectOutputsRange(g, a, nodes, 0, len(nodes), outputs); err != nil {
		return nil, err
	}
	return outputs, nil
}

// collectOutputsRange gathers, sorts, and validates the port sets of
// the node range [lo, hi), filling outputs[lo:hi]. All of the range's
// ports land in one freshly allocated flat buffer — OutputAppender
// nodes write onto it directly, legacy nodes are copied — and each
// node's row becomes a capped subslice, so collection costs O(1)
// allocations per range instead of one per node. The buffer is sized
// once to the range's port count, which bounds every valid output, so
// it never regrows unless an output is invalid. Rows may alias the
// shared buffer but never each other, and a node with no output keeps
// a nil row, so Results stay byte-identical (reflect.DeepEqual) no
// matter which engine or shard count produced them. The first invalid
// node in ascending order wins the error, matching the sequential
// reference; safe for concurrent calls on disjoint ranges because the
// buffer is call-local and outputs rows are per-node.
func collectOutputsRange(g *graph.Graph, a Algorithm, nodes []Node, lo, hi int, outputs [][]int) error {
	off := g.PortOffsets()
	flat := make([]int, 0, off[hi]-off[lo])
	ends := make([]int, hi-lo)
	for v := lo; v < hi; v++ {
		start := len(flat)
		if ap, ok := nodes[v].(OutputAppender); ok {
			flat = ap.AppendOutput(flat)
		} else {
			flat = append(flat, nodes[v].Output()...)
		}
		row := flat[start:]
		sort.Ints(row)
		for k, p := range row {
			if p < 1 || p > g.Deg(v) {
				return fmt.Errorf("sim: algorithm %q: node %d output invalid port %d", a.Name(), v, p)
			}
			if k > 0 && row[k-1] == p {
				return fmt.Errorf("sim: algorithm %q: node %d output duplicate port %d", a.Name(), v, p)
			}
		}
		ends[v-lo] = len(flat)
	}
	// Subslice only after every append: the buffer no longer moves.
	start := 0
	for i, end := range ends {
		if end > start {
			outputs[lo+i] = flat[start:end:end]
		}
		start = end
	}
	return nil
}

// CheckConsistency verifies the paper's output well-formedness condition:
// if i ∈ X(v) and p(v,i) = (u,j) then j ∈ X(u). outputs must hold one
// row per node and every port must lie in [1, deg(v)]; anything else is
// an error. The chosen ports are marked in one flat slice over the
// graph's global port space (graph.PortOffsets), and each partner is
// looked up through the routing table.
func CheckConsistency(g *graph.Graph, outputs [][]int) error {
	if len(outputs) != g.N() {
		return fmt.Errorf("sim: %d output rows for %d nodes", len(outputs), g.N())
	}
	off := g.PortOffsets()
	route := g.RoutingTable()
	chosen := make([]bool, len(route))
	for v, out := range outputs {
		deg := int(off[v+1] - off[v])
		for _, i := range out {
			if i < 1 || i > deg {
				return fmt.Errorf("sim: node %d output invalid port %d", v, i)
			}
			chosen[int(off[v])+i-1] = true
		}
	}
	for v, out := range outputs {
		for _, i := range out {
			if !chosen[route[int(off[v])+i-1]] {
				q := g.P(v, i)
				return fmt.Errorf("sim: inconsistent output: %d ∈ X(%d) but %d ∉ X(%d)", i, v, q.Num, q.Node)
			}
		}
	}
	return nil
}

// EdgeSet converts consistent outputs into the selected edge set D.
func EdgeSet(g *graph.Graph, outputs [][]int) (*graph.EdgeSet, error) {
	if err := CheckConsistency(g, outputs); err != nil {
		return nil, err
	}
	s := graph.NewEdgeSet(g.M())
	for v, out := range outputs {
		for _, i := range out {
			s.Add(g.EdgeAt(v, i))
		}
	}
	return s, nil
}

// RunToEdgeSet runs the algorithm sequentially and returns the selected
// edge set together with the execution statistics.
func RunToEdgeSet(g *graph.Graph, a Algorithm, opts ...Option) (*graph.EdgeSet, *Result, error) {
	res, err := RunSequential(g, a, opts...)
	if err != nil {
		return nil, nil, err
	}
	s, err := EdgeSet(g, res.Outputs)
	if err != nil {
		return nil, nil, err
	}
	return s, res, nil
}
