// Package sim executes deterministic distributed algorithms on
// port-numbered graphs under the synchronous model of Section 2.2 of the
// paper: in every round each node (i) computes, (ii) sends one message to
// each of its ports, and (iii) receives one message from each of its
// ports, routed by the involution p.
//
// There is one round loop, run two ways, and both ways must produce
// identical Results (a cross-engine suite in engines_test.go holds them
// to a dense test-only reference loop, RunReference):
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
//   - RunSequential is the deterministic single-threaded engine and the
//     one of choice for debugging: the same round loop on one shard,
//     its phases run inline with no goroutine and no channel.
//
// Both engines honour WithRoundHook (traces, figures) and WithContext:
// the context is polled at every round barrier and a canceled or
// expired run returns an error wrapping ErrCanceled plus the context's
// cause, with no goroutine left behind.
//
// A node is retired as soon as Done reports true after a Receive: no
// engine calls SendInto or Receive on a retired node, so
// mixed-termination schedules (e.g. degree-dependent scripts on
// irregular graphs) execute identically everywhere.
//
// A run's output is the edge set D of the paper. After the last round
// every node marks its chosen ports X(v) in its outbox window
// (Node.Output), and one flat pass over the global ports checks that
// the marks agree across every edge and sets D's bits; Result.Outputs
// carries D.
package sim

import (
	"context"
	"errors"
	"fmt"
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

// Node is the state machine one node runs. Every round the engine
// calls SendInto, then delivers the round's incoming messages via
// Receive, then polls Done. Once Done reports true the node is never
// called again until the run's one call of Output.
type Node interface {
	// SendInto writes the round's outgoing message for each port into
	// buf (index 0 is port 1). buf has exactly one entry per port and
	// every entry is 0 on entry; write the nonzero messages and leave
	// silent ports untouched. buf is a window into the engine's pooled
	// outbox, rewritten every round and recycled across runs: retaining
	// it, a reslice of it, or any alias past the call corrupts later
	// rounds (the outboxalias analyzer in internal/lint flags it).
	// Retaining the message values written into it is always fine.
	SendInto(round int, buf []Message)
	// Receive delivers the incoming message of each port for this round.
	// inbox is engine-owned and read-only under the same rule as buf.
	Receive(round int, inbox []Message)
	// Done reports whether the node has stopped.
	Done() bool
	// Output marks the node's chosen ports, the set X(v) of the paper:
	// it writes a nonzero word into buf[i-1] for each chosen port i and
	// leaves the other entries 0. buf has exactly one entry per port and
	// arrives all-zero; it is the node's outbox window once more, under
	// SendInto's rule: never retain it. The engine calls Output once,
	// after the last node is done, and fails the run if some chosen
	// port's partner port is not chosen (the paper's consistency
	// condition).
	Output(buf []Message)
}

// Algorithm builds the node state machines of a run. In the
// port-numbering model a starting node knows nothing but its own
// degree, so a node's initial state may depend on g only through
// g.Deg(v) (and, for algorithms that assume unique identifiers, on the
// node index v itself).
//
// The contract of BuildNodes:
//
//   - nodes has exactly hi-lo entries; BuildNodes must set every one
//     (nodes[i] becomes graph node lo+i). A nil entry fails the run.
//   - state carved from arena is engine-owned and dies with the run
//     (the arena is rewound when the pooled run state is reacquired);
//     never store it in the Algorithm value, a package-level variable,
//     a channel, or anything else that outlives the run. The arenaalias
//     analyzer (internal/lint) flags retention mechanically.
//   - concurrent calls on disjoint [lo, hi) ranges with distinct arenas
//     must be safe: the sharded engine builds all shards in parallel.
//     In particular node identity must not come from construction
//     *order* (a shared counter); use the node index.
type Algorithm interface {
	// Name identifies the algorithm in logs and error messages.
	Name() string
	// BuildNodes constructs the nodes of the half-open range [lo, hi),
	// carving their state from arena; nodes[i] is node lo+i.
	BuildNodes(g *graph.Graph, lo, hi int, arena *StateArena, nodes []Node)
}

// Result summarises one execution.
type Result struct {
	// Outputs is the run's output D: the edges whose ports the nodes
	// chose (Node.Output), a set over g's edges. graph.PortsIn recovers
	// one node's X(v) from it.
	Outputs *graph.EdgeSet
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
// round counts or timestamps — so every engine and shard count reports
// the same error byte for byte.
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
// port i). The engines present their flat outbox through per-node
// subslices and invoke the hook between the send and receive phases,
// where no worker is running, so traces and figures work at every graph
// scale. The hook must treat the matrix as read-only (the messages are
// already delivered, and the next send phase resets only the slots it
// delivered from) and must not retain it across rounds: the rows are
// views of a flat buffer that is recycled at the next barrier (the
// outboxalias analyzer in internal/lint enforces this mechanically).
func WithRoundHook(fn func(round int, sent [][]Message)) Option {
	return func(c *config) { c.roundHook = fn }
}

// Timings is the wall-clock split of one run, filled in by WithTimings:
// Setup covers run-state acquisition and node construction, Rounds the
// round loop, Outputs the epilogue that has every node mark its chosen
// ports and builds the edge set D from them, checking their
// consistency. On an error exit only the phases that completed are set.
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

// roundLimit is the shared round-budget error, built identically by
// every engine.
func roundLimit(a Algorithm, round int) error {
	return fmt.Errorf("%w: algorithm %q still running after %d rounds", ErrRoundLimit, a.Name(), round)
}

// RunSequential executes the algorithm on g with the deterministic
// single-threaded engine: the sharded engine's round loop run inline on
// one shard, with no goroutine and no channel. It shares that loop's
// send-time delivery over the graph's flat routing view and its pooled
// run state; WithShards does not apply to it.
func RunSequential(g *graph.Graph, a Algorithm, opts ...Option) (*Result, error) {
	c := buildConfig(opts)
	return runShards(g, a, 1, &c)
}

// EdgeSet returns a run's edge set d (Result.Outputs), after checking
// that d is a set over g's edges. The engine builds and checks D itself,
// so this is only the check that d belongs to g.
func EdgeSet(g *graph.Graph, d *graph.EdgeSet) (*graph.EdgeSet, error) {
	if d.Universe() != g.M() {
		return nil, fmt.Errorf("sim: edge set over %d edges for a graph with %d", d.Universe(), g.M())
	}
	return d, nil
}
