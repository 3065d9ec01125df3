// Delivery contract suite: messages are delivered at send time into the
// partner's inbox slot, and the next send phase sets back to 0 only the
// slots it listed. These tests pin what that must preserve — every
// SendInto and Output window arrives all-zero, every inbox holds exactly
// this round's messages and nothing stale, a silent round delivers
// nothing — on sparse, round-dependent send patterns over the whole
// equivalence corpus, and across pooled runs that stopped mid-schedule.
// The dense reference loop (sim.RunReference), which allocates fresh
// buffers every round, is the oracle.
package sim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

// sparseAlg sends on a sparse, round-dependent set of ports: port i
// carries the round number in round r iff (i+r) % 3 == 0, except that
// every fourth round (r % 4 == 3) is silent everywhere. A node of
// degree d stops after 3+2d rounds, so nodes on irregular graphs stop
// at different rounds. Nodes check the delivery contract as they run
// and report violations and received-message counts to the shared
// recorder.
type sparseAlg struct{ rec *deliveryRecorder }

// deliveryRecorder collects contract violations and counts delivered
// messages; the sharded engine calls nodes concurrently.
type deliveryRecorder struct {
	mu         sync.Mutex
	violations []string
	received   int
}

func (r *deliveryRecorder) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.violations) < 10 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *deliveryRecorder) count(n int) {
	r.mu.Lock()
	r.received += n
	r.mu.Unlock()
}

func (sparseAlg) Name() string { return "sparse-rounds" }
func (a sparseAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *sim.StateArena, nodes []sim.Node) {
	sim.BuildEach(g, lo, nodes, func(degree int) sim.Node {
		return &sparseNode{stop: 3 + 2*degree, rec: a.rec}
	})
}

type sparseNode struct {
	stop, round int
	rec         *deliveryRecorder
}

func sparseSends(port, round int) bool { return round%4 != 3 && (port+round)%3 == 0 }

// sparseMsg is the message every sender writes in round: round+1, so
// that no round's message is the empty word.
func sparseMsg(round int) sim.Message { return sim.Message(round + 1) }

func (n *sparseNode) SendInto(round int, buf []sim.Message) {
	for i, m := range buf {
		if m != 0 {
			n.rec.violate("round %d: SendInto window slot %d arrived holding %v", round, i, m)
		}
	}
	for i := range buf {
		if sparseSends(i+1, round) {
			buf[i] = sparseMsg(round)
		}
	}
}

func (n *sparseNode) Receive(round int, inbox []sim.Message) {
	got := 0
	for i, m := range inbox {
		if m == 0 {
			continue
		}
		got++
		if round%4 == 3 {
			n.rec.violate("round %d is silent but port %d received %v", round, i+1, m)
		} else if m != sparseMsg(round) {
			n.rec.violate("round %d: port %d received stale message %v", round, i+1, m)
		}
	}
	n.rec.count(got)
	n.round++
}

func (n *sparseNode) Done() bool { return n.round >= n.stop }

// Output checks that the window arrives all-zero, as SendInto's do —
// the last round's messages must not read as chosen ports — and
// chooses every port.
func (n *sparseNode) Output(buf []sim.Message) {
	for i, m := range buf {
		if m != 0 {
			n.rec.violate("Output window slot %d arrived holding %v", i, m)
		}
		buf[i] = 1
	}
}

// deliveryEngines are the engine configurations: the sequential engine
// and the sharded engine at P ∈ {1, 2, NumCPU, n}.
func deliveryEngines(n int) []engine {
	es := []engine{{"sequential", sim.RunSequential}}
	for _, p := range []int{1, 2, runtime.NumCPU(), n} {
		p := p
		es = append(es, engine{fmt.Sprintf("sharded/P=%d", p),
			func(g *graph.Graph, a sim.Algorithm, opts ...sim.Option) (*sim.Result, error) {
				return sim.RunSharded(g, a, append(opts, sim.WithShards(p))...)
			}})
	}
	return es
}

// runSparse runs sparseAlg on g and returns the result and the number of
// messages nodes received, failing the test on any contract violation.
func runSparse(t *testing.T, label string, run func(*graph.Graph, sim.Algorithm, ...sim.Option) (*sim.Result, error), g *graph.Graph) (*sim.Result, int) {
	t.Helper()
	rec := &deliveryRecorder{}
	res, err := run(g, sparseAlg{rec: rec})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, v := range rec.violations {
		t.Errorf("%s: %s", label, v)
	}
	return res, rec.received
}

// TestSendTimeDelivery runs the sparse algorithm over the equivalence
// corpus (loops, parallel edges and mixed termination included; on the
// added star the centre outlives its leaves by many rounds, sending
// into retired nodes) on every engine configuration. The reference,
// which never shares a buffer between rounds, is the oracle for the
// result and for the number of messages that reach a live node.
func TestSendTimeDelivery(t *testing.T) {
	corpus := append(gen.EquivalenceCorpus(),
		gen.NamedGraph{Name: "Star/K1,5", G: graph.MustFromUndirected(6, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})})
	for _, ng := range corpus {
		t.Run(ng.Name, func(t *testing.T) {
			ref, refRecv := runSparse(t, "reference", sim.RunReference, ng.G)
			if ref.Messages == 0 || refRecv == 0 {
				t.Fatalf("reference run sent %d and delivered %d messages; the test needs traffic", ref.Messages, refRecv)
			}
			for _, e := range deliveryEngines(ng.G.N()) {
				res, recv := runSparse(t, e.name, e.run, ng.G)
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("%s: result %+v, reference %+v", e.name, res, ref)
				}
				if recv != refRecv {
					t.Errorf("%s: nodes received %d messages, reference %d", e.name, recv, refRecv)
				}
			}
		})
	}
}

// noisyAlg sends a message on every port of every node in every round
// and never terminates: a run of it stops only from outside, leaving
// messages in flight. cancel, when set, cancels the run's context from
// SendInto at round noisyStop; otherwise the run relies on
// WithMaxRounds(noisyStop).
type noisyAlg struct{ cancel context.CancelFunc }

const noisyStop = 3

func (noisyAlg) Name() string { return "noisy" }
func (a noisyAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *sim.StateArena, nodes []sim.Node) {
	sim.BuildEach(g, lo, nodes, func(int) sim.Node { return noisyNode{alg: a} })
}

type noisyNode struct{ alg noisyAlg }

func (n noisyNode) SendInto(round int, buf []sim.Message) {
	if round == noisyStop && n.alg.cancel != nil {
		n.alg.cancel()
	}
	for i := range buf {
		buf[i] = 1
	}
}
func (noisyNode) Receive(round int, inbox []sim.Message) {}
func (noisyNode) Done() bool                             { return false }
func (noisyNode) Output(buf []sim.Message)               {}

// TestPooledStateAfterAbortedRun stops a run mid-schedule with messages
// in flight — by the round limit or a cancellation — and then reuses
// the pooled run state for the sparse algorithm on a smaller graph: the
// reused buffers must hand every SendInto an all-zero window and every
// node exactly this round's messages, and the result must equal the
// reference.
func TestPooledStateAfterAbortedRun(t *testing.T) {
	// A 64-cycle with a pendant on its last node, larger than the graph
	// the reused state serves next.
	edges := [][2]int{{63, 64}}
	for v := 0; v < 64; v++ {
		edges = append(edges, [2]int{v, (v + 1) % 64})
	}
	big := graph.MustFromUndirected(65, edges)
	small := gen.RandomBoundedDegree(rand.New(rand.NewSource(5)), 24, 4, 0.4)
	ref, refRecv := runSparse(t, "reference", sim.RunReference, small)
	for _, mode := range []string{"round-limit", "cancel"} {
		for _, e := range deliveryEngines(big.N()) {
			label := mode + "/" + e.name
			ctx, cancel := context.WithCancel(context.Background())
			opts := []sim.Option{sim.WithContext(ctx)}
			alg := noisyAlg{cancel: cancel}
			if mode == "round-limit" {
				opts = append(opts, sim.WithMaxRounds(noisyStop))
				alg = noisyAlg{}
			}
			_, err := e.run(big, alg, opts...)
			cancel()
			if err == nil || (mode == "round-limit") != errors.Is(err, sim.ErrRoundLimit) ||
				(mode == "cancel") != errors.Is(err, sim.ErrCanceled) {
				t.Fatalf("%s: aborted run returned %v", label, err)
			}
			res, recv := runSparse(t, label, e.run, small)
			if !reflect.DeepEqual(res, ref) || recv != refRecv {
				t.Errorf("%s: reused state gave %+v (%d received), reference %+v (%d received)", label, res, recv, ref, refRecv)
			}
		}
	}
}
