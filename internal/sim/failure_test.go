package sim

import (
	"testing"

	"eds/internal/gen"
	"eds/internal/graph"
)

// dupPortAlg outputs the same port twice.
type dupPortAlg struct{}

func (dupPortAlg) Name() string { return "dup-port" }
func (dupPortAlg) BuildNodes(g *graph.Graph, lo, hi int, _ *StateArena, nodes []Node) {
	BuildEach(g, lo, nodes, func(int) Node { return dupPortNode{} })
}

type dupPortNode struct{}

func (dupPortNode) SendInto(round int, buf []Message)  {}
func (dupPortNode) Receive(round int, inbox []Message) {}
func (dupPortNode) Done() bool                         { return true }
func (dupPortNode) AppendOutput(dst []int) []int       { return append(dst, 1, 1) }

func TestDuplicateOutputPortRejected(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := RunSequential(g, dupPortAlg{}); err == nil {
		t.Error("duplicate output port accepted")
	}
}
