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
package sim

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
// called again except for one AppendOutput.
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
	// AppendOutput appends the node's chosen ports (the set X(v) of the
	// paper, 1-based port numbers, in any order) to dst and returns the
	// extended slice. The engine calls it once, after Done is true.
	AppendOutput(dst []int) []int
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

// collectOutputsRange gathers, sorts, and validates the port sets of
// the node range [lo, hi), filling outputs[lo:hi]. Every node appends
// its ports onto one freshly allocated flat buffer and each node's row
// becomes a capped subslice, so collection costs O(1) allocations per
// range instead of one per node. The buffer is sized once to the
// range's port count, which bounds every valid output, so it never
// regrows unless an output is invalid. Rows may alias the shared buffer
// but never each other, and a node with no output keeps a nil row, so
// Results stay byte-identical (reflect.DeepEqual) no matter which
// engine or shard count produced them. The first invalid node in
// ascending order wins the error; safe for concurrent calls on disjoint
// ranges because the buffer is call-local and outputs rows are
// per-node.
func collectOutputsRange(g *graph.Graph, a Algorithm, nodes []Node, lo, hi int, outputs [][]int) error {
	off := g.PortOffsets()
	flat := make([]int, 0, off[hi]-off[lo])
	ends := make([]int, hi-lo)
	for v := lo; v < hi; v++ {
		start := len(flat)
		flat = nodes[v].AppendOutput(flat)
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
