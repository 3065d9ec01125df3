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

func (markAlg) Name() string            { return "mark-port-one" }
func (markAlg) NewNode(degree int) Node { return &markNode{deg: degree} }

type markNode struct {
	deg  int
	done bool
	out  []int
}

func (n *markNode) Send(round int) []Message {
	msgs := make([]Message, n.deg)
	if n.deg > 0 {
		msgs[0] = mark
	}
	return msgs
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

func (n *markNode) Done() bool    { return n.done }
func (n *markNode) Output() []int { return n.out }

// sumAlg runs `rounds` rounds, each node broadcasting a running sum seeded
// with its degree; the output is empty. It exercises multi-round routing.
type sumAlg struct{ rounds int }

func (sumAlg) Name() string              { return "degree-sum" }
func (a sumAlg) NewNode(degree int) Node { return &sumNode{deg: degree, left: a.rounds, sum: degree} }

type sumNode struct {
	deg, left, sum int
}

func (n *sumNode) Send(round int) []Message {
	msgs := make([]Message, n.deg)
	for i := range msgs {
		msgs[i] = Message(n.sum)
	}
	return msgs
}

func (n *sumNode) Receive(round int, inbox []Message) {
	for _, m := range inbox {
		n.sum += int(m)
	}
	n.left--
}

func (n *sumNode) Done() bool    { return n.left <= 0 }
func (n *sumNode) Output() []int { return nil }

// neverAlg never terminates.
type neverAlg struct{}

func (neverAlg) Name() string            { return "never" }
func (neverAlg) NewNode(degree int) Node { return &neverNode{deg: degree} }

type neverNode struct{ deg int }

func (n *neverNode) Send(round int) []Message           { return make([]Message, n.deg) }
func (n *neverNode) Receive(round int, inbox []Message) {}
func (n *neverNode) Done() bool                         { return false }
func (n *neverNode) Output() []int                      { return nil }

// badPortAlg outputs an out-of-range port.
type badPortAlg struct{}

func (badPortAlg) Name() string            { return "bad-port" }
func (badPortAlg) NewNode(degree int) Node { return &badPortNode{deg: degree} }

type badPortNode struct{ deg int }

func (n *badPortNode) Send(round int) []Message           { return make([]Message, n.deg) }
func (n *badPortNode) Receive(round int, inbox []Message) {}
func (n *badPortNode) Done() bool                         { return true }
func (n *badPortNode) Output() []int                      { return []int{n.deg + 1} }

func TestMarkAlgOnCycle(t *testing.T) {
	g := gen.Cycle(5)
	res, err := RunSequential(g, markAlg{})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
	if err := CheckConsistency(g, res.Outputs); err != nil {
		t.Fatalf("CheckConsistency: %v", err)
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
			seq, err := RunSequential(g, alg)
			if err != nil {
				return false
			}
			for _, run := range []func(*graph.Graph, Algorithm, ...Option) (*Result, error){RunConcurrent, RunSharded} {
				res, err := run(g, alg)
				if err != nil {
					return false
				}
				if !reflect.DeepEqual(seq.Outputs, res.Outputs) {
					return false
				}
				if seq.Rounds != res.Rounds || seq.Messages != res.Messages {
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
	seq, err := RunSequential(g, sumAlg{rounds: 2})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	con, err := RunConcurrent(g, sumAlg{rounds: 2})
	if err != nil {
		t.Fatalf("RunConcurrent: %v", err)
	}
	if seq.Messages != con.Messages || seq.Rounds != con.Rounds {
		t.Errorf("engines disagree: %+v vs %+v", seq, con)
	}
	sh, err := RunSharded(g, sumAlg{rounds: 2})
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if seq.Messages != sh.Messages || seq.Rounds != sh.Rounds {
		t.Errorf("sharded engine disagrees: %+v vs %+v", seq, sh)
	}
}

// varAlg runs for as many rounds as the node's own degree, broadcasting
// every round: on irregular graphs nodes retire at different times. This
// is the regression test for the sequential engine's done-scan — an early
// break used to leave retired nodes' flags unset, so they kept sending
// (inflating Messages relative to the other engines, or crashing nodes
// whose Send cannot run past their schedule).
type varAlg struct{}

func (varAlg) Name() string            { return "degree-rounds" }
func (varAlg) NewNode(degree int) Node { return &varNode{deg: degree, left: degree} }

type varNode struct{ deg, left int }

func (n *varNode) Send(round int) []Message {
	msgs := make([]Message, n.deg)
	for i := range msgs {
		msgs[i] = 1
	}
	return msgs
}

func (n *varNode) Receive(round int, inbox []Message) { n.left-- }
func (n *varNode) Done() bool                         { return n.left <= 0 }
func (n *varNode) Output() []int                      { return nil }

func TestHeterogeneousTermination(t *testing.T) {
	// Star K_{1,4}: the centre runs 4 rounds, the leaves one round each.
	g := graph.MustFromUndirected(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	seq, err := RunSequential(g, varAlg{})
	if err != nil {
		t.Fatalf("RunSequential: %v", err)
	}
	if seq.Rounds != 4 {
		t.Errorf("Rounds = %d, want 4", seq.Rounds)
	}
	// Centre sends 4 rounds x 4 ports, each leaf sends 1 round x 1 port.
	if want := 4*4 + 4; seq.Messages != want {
		t.Errorf("Messages = %d, want %d (retired leaves must not send)", seq.Messages, want)
	}
	for name, run := range map[string]func(*graph.Graph, Algorithm, ...Option) (*Result, error){
		"concurrent": RunConcurrent,
		"sharded":    RunSharded,
	} {
		res, err := run(g, varAlg{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rounds != seq.Rounds || res.Messages != seq.Messages {
			t.Errorf("%s disagrees: %+v vs %+v", name, res, seq)
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
			if !reflect.DeepEqual(rh.Outputs[v], rg.Outputs[0]) {
				t.Errorf("%s: output of covering node %d = %v, image outputs %v",
					alg.Name(), v, rh.Outputs[v], rg.Outputs[0])
			}
		}
	}
}

func TestRoundLimit(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := RunSequential(g, neverAlg{}, WithMaxRounds(10)); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("sequential: err = %v, want ErrRoundLimit", err)
	}
	if _, err := RunConcurrent(g, neverAlg{}, WithMaxRounds(10)); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("concurrent: err = %v, want ErrRoundLimit", err)
	}
	if _, err := RunSharded(g, neverAlg{}, WithMaxRounds(10)); !errors.Is(err, ErrRoundLimit) {
		t.Errorf("sharded: err = %v, want ErrRoundLimit", err)
	}
}

func TestInvalidOutputRejected(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := RunSequential(g, badPortAlg{}); err == nil {
		t.Error("out-of-range output accepted")
	}
}

func TestCheckConsistencyRejects(t *testing.T) {
	g := gen.Path(2) // single edge, ports (0,1)-(1,1)
	if err := CheckConsistency(g, [][]int{{1}, {}}); err == nil {
		t.Error("one-sided output accepted")
	}
	if err := CheckConsistency(g, [][]int{{1}, {1}}); err != nil {
		t.Errorf("consistent output rejected: %v", err)
	}
	for _, bad := range [][][]int{{{0}, {}}, {{2}, {}}, {{1}, {-1}}} {
		if err := CheckConsistency(g, bad); err == nil {
			t.Errorf("out-of-range port accepted: %v", bad)
		}
	}
	for _, bad := range [][][]int{{{1}}, {{1}, {1}, {}}, nil} {
		if err := CheckConsistency(g, bad); err == nil {
			t.Errorf("outputs with %d rows for %d nodes accepted", len(bad), g.N())
		}
	}

	// One node with a directed loop (port 1 is its own partner) and an
	// undirected loop (ports 2 and 3 are each other's partners).
	b := graph.NewBuilder(1)
	b.MustConnect(0, 1, 0, 1)
	b.MustConnect(0, 2, 0, 3)
	loops := b.MustBuild()
	for _, ok := range [][][]int{{{1}}, {{2, 3}}, {{1, 2, 3}}, {{}}} {
		if err := CheckConsistency(loops, ok); err != nil {
			t.Errorf("consistent loop output %v rejected: %v", ok, err)
		}
	}
	err := CheckConsistency(loops, [][]int{{1, 2}})
	if want := "sim: inconsistent output: 2 ∈ X(0) but 3 ∉ X(0)"; err == nil || err.Error() != want {
		t.Errorf("one-sided undirected loop: err = %v, want %q", err, want)
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
	// Above the auto threshold RunAuto prefers the sharded engine, but a
	// round hook must force the sequential engine — the only one that
	// honours it — so the hook never goes silently uninvoked.
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

func TestEnginesRegistryComplete(t *testing.T) {
	want := []string{"sequential", "concurrent", "sharded"}
	reg := Engines()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d engines, want %d", len(reg), len(want))
	}
	for _, name := range want {
		if reg[name] == nil {
			t.Errorf("registry missing engine %q", name)
		}
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
	for v, out := range res.Outputs {
		if len(out) != 0 {
			t.Errorf("node %d output %v, want empty", v, out)
		}
	}
	if res.Messages != 0 {
		t.Errorf("Messages = %d, want 0", res.Messages)
	}
}

func TestRunToEdgeSet(t *testing.T) {
	g := gen.Complete(4)
	d, res, err := RunToEdgeSet(g, markAlg{})
	if err != nil {
		t.Fatalf("RunToEdgeSet: %v", err)
	}
	if d.Empty() {
		t.Error("empty edge set from markAlg on K4")
	}
	if res.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", res.Rounds)
	}
}
