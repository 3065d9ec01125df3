package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eds/internal/gen"
	"eds/internal/graph"
)

// markAlg is a miniature of the paper's Theorem 3 algorithm: one round,
// mark port 1, select every edge that touches a port numbered 1.
type markAlg struct{}

// mark is markAlg's one message.
const mark Message = 1

func (markAlg) Name() string { return "mark-port-one" }
func (markAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *StateArena, nodes []Node) {
	BuildEach(g, lo, nodes, func(degree int) Node { return &markNode{deg: degree} })
}

type markNode struct {
	deg  int
	done bool
	out  []int
}

func (n *markNode) SendInto(round int, buf []Message) {
	if n.deg > 0 {
		buf[0] = mark
	}
}

func (n *markNode) Receive(round int, inbox []Message) {
	if n.deg > 0 {
		n.out = append(n.out, 1)
	}
	for i, m := range inbox {
		if m == mark && i != 0 {
			n.out = append(n.out, i+1)
		}
	}
	n.done = true
}

func (n *markNode) Done() bool { return n.done }
func (n *markNode) Output(buf []Message) {
	for _, i := range n.out {
		buf[i-1] = mark
	}
}

// sumAlg runs `rounds` rounds, each node broadcasting a running sum seeded
// with its degree; the output is empty. It exercises multi-round routing.
type sumAlg struct{ rounds int }

func (sumAlg) Name() string { return "degree-sum" }
func (a sumAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *StateArena, nodes []Node) {
	BuildEach(g, lo, nodes, func(degree int) Node { return &sumNode{left: a.rounds, sum: degree} })
}

type sumNode struct {
	left, sum int
}

func (n *sumNode) SendInto(round int, buf []Message) {
	for i := range buf {
		buf[i] = Message(n.sum)
	}
}

func (n *sumNode) Receive(round int, inbox []Message) {
	for _, m := range inbox {
		n.sum += int(m)
	}
	n.left--
}

func (n *sumNode) Done() bool           { return n.left <= 0 }
func (n *sumNode) Output(buf []Message) {}

// neverAlg never terminates.
type neverAlg struct{}

func (neverAlg) Name() string { return "never" }
func (neverAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *StateArena, nodes []Node) {
	BuildEach(g, lo, nodes, func(int) Node { return neverNode{} })
}

type neverNode struct{}

func (neverNode) SendInto(round int, buf []Message)  {}
func (neverNode) Receive(round int, inbox []Message) {}
func (neverNode) Done() bool                         { return false }
func (neverNode) Output(buf []Message)               {}

// fixedAlg's nodes are born done and choose the fixed port sets x[v].
// Each node also records the windows Output hands it.
type fixedAlg struct{ nodes []*fixedNode }

func newFixedAlg(x [][]int) fixedAlg {
	a := fixedAlg{nodes: make([]*fixedNode, len(x))}
	for v := range x {
		a.nodes[v] = &fixedNode{x: x[v]}
	}
	return a
}

func (fixedAlg) Name() string { return "fixed-output" }
func (a fixedAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *StateArena, nodes []Node) {
	for i := range nodes {
		nodes[i] = a.nodes[lo+i]
	}
}

type fixedNode struct {
	x             []int
	calls, ln, cp int
}

func (*fixedNode) SendInto(round int, buf []Message)  {}
func (*fixedNode) Receive(round int, inbox []Message) {}
func (*fixedNode) Done() bool                         { return true }
func (n *fixedNode) Output(buf []Message) {
	n.calls++
	n.ln, n.cp = len(buf), cap(buf)
	for _, i := range n.x {
		buf[i-1] = 1
	}
}

func TestMarkAlgOnCycle(t *testing.T) {
	g := gen.Cycle(5)
	res, err := RunSequential(g, markAlg{})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
	d, err := EdgeSet(g, res.Outputs)
	if err != nil {
		t.Fatalf("EdgeSet: %v", err)
	}
	// Every node marked port 1, so D covers all nodes.
	covered := graph.CoveredNodes(g, d)
	for v, c := range covered {
		if !c {
			t.Errorf("node %d not covered", v)
		}
	}
}

func TestEnginesAgreeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch rng.Intn(3) {
		case 0:
			g = gen.MustRandomRegular(rng, 6+2*rng.Intn(5), 3)
		case 1:
			g = gen.RandomBoundedDegree(rng, 5+rng.Intn(12), 4, 0.5)
		default:
			g = gen.RandomTree(rng, 2+rng.Intn(15))
		}
		for _, alg := range []Algorithm{markAlg{}, sumAlg{rounds: 3}} {
			ref, err := RunReference(g, alg)
			if err != nil {
				return false
			}
			for _, run := range []func(*graph.Graph, Algorithm, ...Option) (*Result, error){RunSequential, RunSharded} {
				res, err := run(g, alg)
				if err != nil || !reflect.DeepEqual(res, ref) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEnginesOnMultigraph(t *testing.T) {
	// One node, one undirected loop (ports 1-2) plus a directed loop
	// (port 3): message routing must bring a node's own messages back.
	b := graph.NewBuilder(1)
	b.MustConnect(0, 1, 0, 2)
	b.MustConnect(0, 3, 0, 3)
	g := b.MustBuild()
	ref, err := RunReference(g, sumAlg{rounds: 2})
	if err != nil {
		t.Fatalf("RunReference: %v", err)
	}
	for name, run := range map[string]func(*graph.Graph, Algorithm, ...Option) (*Result, error){
		"sequential": RunSequential,
		"sharded":    RunSharded,
	} {
		res, err := run(g, sumAlg{rounds: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Messages != ref.Messages || res.Rounds != ref.Rounds {
			t.Errorf("%s disagrees with the reference: %+v vs %+v", name, res, ref)
		}
	}
}

// varAlg runs for as many rounds as the node's own degree, broadcasting
// every round: on irregular graphs nodes retire at different times. This
// is the regression test for the sequential engine's done-scan — an early
// break used to leave retired nodes' flags unset, so they kept sending
// (inflating Messages relative to the other engines, or crashing nodes
// whose SendInto cannot run past their schedule).
type varAlg struct{}

func (varAlg) Name() string { return "degree-rounds" }
func (varAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *StateArena, nodes []Node) {
	BuildEach(g, lo, nodes, func(degree int) Node { return &varNode{left: degree} })
}

type varNode struct{ left int }

func (n *varNode) SendInto(round int, buf []Message) {
	for i := range buf {
		buf[i] = 1
	}
}

func (n *varNode) Receive(round int, inbox []Message) { n.left-- }
func (n *varNode) Done() bool                         { return n.left <= 0 }
func (n *varNode) Output(buf []Message)               {}

func TestHeterogeneousTermination(t *testing.T) {
	// Star K_{1,4}: the centre runs 4 rounds, the leaves one round each.
	g := graph.MustFromUndirected(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	ref, err := RunReference(g, varAlg{})
	if err != nil {
		t.Fatalf("RunReference: %v", err)
	}
	if ref.Rounds != 4 {
		t.Errorf("Rounds = %d, want 4", ref.Rounds)
	}
	// Centre sends 4 rounds x 4 ports, each leaf sends 1 round x 1 port.
	if want := 4*4 + 4; ref.Messages != want {
		t.Errorf("Messages = %d, want %d (retired leaves must not send)", ref.Messages, want)
	}
	for name, run := range map[string]func(*graph.Graph, Algorithm, ...Option) (*Result, error){
		"sequential": RunSequential,
		"sharded":    RunSharded,
	} {
		res, err := run(g, varAlg{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rounds != ref.Rounds || res.Messages != ref.Messages {
			t.Errorf("%s disagrees with the reference: %+v vs %+v", name, res, ref)
		}
	}
}

func TestCoveringMapLemma(t *testing.T) {
	// Section 2.3: a node of the covering graph outputs exactly what its
	// image outputs. C6 with pair ports covers the single-node loop
	// multigraph.
	bh := graph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		bh.MustConnect(v, 1, (v+1)%6, 2)
	}
	h := bh.MustBuild()
	bg := graph.NewBuilder(1)
	bg.MustConnect(0, 1, 0, 2)
	g := bg.MustBuild()

	for _, alg := range []Algorithm{markAlg{}, sumAlg{rounds: 4}} {
		rh, err := RunSequential(h, alg)
		if err != nil {
			t.Fatalf("run on cover: %v", err)
		}
		rg, err := RunSequential(g, alg)
		if err != nil {
			t.Fatalf("run on base: %v", err)
		}
		for v := 0; v < 6; v++ {
			if xh, xg := graph.PortsIn(h, rh.Outputs, v), graph.PortsIn(g, rg.Outputs, 0); !reflect.DeepEqual(xh, xg) {
				t.Errorf("%s: output of covering node %d = %v, image outputs %v", alg.Name(), v, xh, xg)
			}
		}
	}
}

func TestRoundLimit(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := RunSequential(g, neverAlg{}, WithMaxRounds(10)); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("sequential: err = %v, want ErrRoundLimit", err)
	}
	if _, err := RunSharded(g, neverAlg{}, WithMaxRounds(10)); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("sharded: err = %v, want ErrRoundLimit", err)
	}
}

// TestInconsistentOutputRejected runs test algorithms with fixed
// outputs on every engine: an output is accepted exactly when every
// chosen port's partner is chosen too (the paper's consistency
// condition, loops included), D is then the set of chosen edges, and
// the error names the lowest chosen port whose partner is not chosen.
// Out-of-range ports and a wrong number of output rows cannot be
// expressed: each node gets exactly one window, of its own degree.
func TestInconsistentOutputRejected(t *testing.T) {
	path := gen.Path(2) // single edge, ports (0,1)-(1,1)
	// One node with a directed loop (port 1 is its own partner) and an
	// undirected loop (ports 2 and 3 are each other's partners).
	b := graph.NewBuilder(1)
	b.MustConnect(0, 1, 0, 1)
	b.MustConnect(0, 2, 0, 3)
	loops := b.MustBuild()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		x    [][]int
		want string // the error; "" if the output is consistent
	}{
		{"OneSided", path, [][]int{{1}, nil}, "sim: inconsistent output: 1 ∈ X(0) but 1 ∉ X(1)"},
		{"OtherSide", path, [][]int{nil, {1}}, "sim: inconsistent output: 1 ∈ X(1) but 1 ∉ X(0)"},
		{"Edge", path, [][]int{{1}, {1}}, ""},
		{"Empty", path, [][]int{nil, nil}, ""},
		{"DirectedLoop", loops, [][]int{{1}}, ""},
		{"UndirectedLoop", loops, [][]int{{2, 3}}, ""},
		{"BothLoops", loops, [][]int{{1, 2, 3}}, ""},
		{"NoLoop", loops, [][]int{nil}, ""},
		{"OneSidedUndirectedLoop", loops, [][]int{{1, 2}}, "sim: inconsistent output: 2 ∈ X(0) but 3 ∉ X(0)"},
		{"OtherSideUndirectedLoop", loops, [][]int{{3}}, "sim: inconsistent output: 3 ∈ X(0) but 2 ∉ X(0)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for name, run := range map[string]func(*graph.Graph, Algorithm, ...Option) (*Result, error){
				"reference":  RunReference,
				"sequential": RunSequential,
				"sharded":    RunSharded,
			} {
				alg := newFixedAlg(tc.x)
				res, err := run(tc.g, alg)
				for v, n := range alg.nodes {
					if d := tc.g.Deg(v); n.calls != 1 || n.ln != d || n.cp != d {
						t.Errorf("%s: node %d got %d Output windows, the last of len %d cap %d; want one of %d",
							name, v, n.calls, n.ln, n.cp, d)
					}
				}
				if tc.want != "" {
					if err == nil || err.Error() != tc.want || res != nil {
						t.Errorf("%s: err = %v, want %q and no Result", name, err, tc.want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: consistent output rejected: %v", name, err)
				}
				for v, x := range tc.x {
					if got := graph.PortsIn(tc.g, res.Outputs, v); !reflect.DeepEqual(got, x) {
						t.Errorf("%s: X(%d) read back from D = %v, want %v", name, v, got, x)
					}
				}
			}
		})
	}
}

func TestRoundHookSeesMessages(t *testing.T) {
	g := gen.Cycle(3)
	var rounds int
	var total int
	hook := func(round int, sent [][]Message) {
		rounds++
		for _, row := range sent {
			for _, m := range row {
				if m != 0 {
					total++
				}
			}
		}
	}
	res, err := RunSequential(g, sumAlg{rounds: 2}, WithRoundHook(hook))
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if rounds != res.Rounds {
		t.Errorf("hook saw %d rounds, result says %d", rounds, res.Rounds)
	}
	if total != res.Messages {
		t.Errorf("hook counted %d messages, result says %d", total, res.Messages)
	}
}

func TestRunAutoHonoursRoundHook(t *testing.T) {
	// Above the auto threshold RunAuto picks the sharded engine, which
	// must drive the hook itself: the hook never goes silently uninvoked.
	g := gen.Cycle(AutoShardedPorts) // 2n ports, above the sharded cutover
	hooked := 0
	res, err := RunAuto(g, sumAlg{rounds: 2}, WithRoundHook(func(int, [][]Message) { hooked++ }))
	if err != nil {
		t.Fatalf("RunAuto with hook: %v", err)
	}
	if hooked != res.Rounds {
		t.Errorf("hook fired %d times, want %d", hooked, res.Rounds)
	}
	plain, err := RunAuto(g, sumAlg{rounds: 2})
	if err != nil {
		t.Fatalf("RunAuto: %v", err)
	}
	if plain.Rounds != res.Rounds || plain.Messages != res.Messages {
		t.Errorf("hooked and plain auto runs disagree: %+v vs %+v", res, plain)
	}
}

func TestIsolatedNodes(t *testing.T) {
	// Degree-0 nodes send and receive nothing but still run rounds and
	// terminate with an empty output.
	g := graph.MustFromUndirected(3, nil)
	res, err := RunSequential(g, markAlg{})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if res.Outputs.Universe() != 0 {
		t.Errorf("edge set over %d edges, want 0", res.Outputs.Universe())
	}
	if res.Messages != 0 {
		t.Errorf("Messages = %d, want 0", res.Messages)
	}
}

func TestRunReturnsEdgeSet(t *testing.T) {
	g := gen.Complete(4)
	res, err := RunSequential(g, markAlg{})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if d := res.Outputs; d.Universe() != g.M() || d.Empty() {
		t.Errorf("markAlg on K4 returned %v over %d edges, want a nonempty set over %d", d, d.Universe(), g.M())
	}
	if _, err := EdgeSet(g, graph.NewEdgeSet(g.M()+1)); err == nil {
		t.Error("EdgeSet accepted a set over another graph's edges")
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
}
