package graph_test

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"eds/internal/graph"
)

// TestDigestCanonical pins the digest's contract: wire-form cosmetics
// do not move it, structure does.
func TestDigestCanonical(t *testing.T) {
	const wire = "nodes 4\nconn 0 1 1 1\nconn 1 2 2 1\nconn 2 2 3 1\nconn 3 2 0 2\n"
	g1, err := graph.ReadGraph(strings.NewReader(wire))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}

	// Comments, blank lines, and reordered conn lines decode to the same
	// port-numbered graph, so the digest must not move.
	cosmetic := "# cycle on four nodes\n\nnodes 4\nconn 3 2 0 2\nconn 0 1 1 1\nconn 2 2 3 1\nconn 1 2 2 1\n"
	g2, err := graph.ReadGraph(strings.NewReader(cosmetic))
	if err != nil {
		t.Fatalf("ReadGraph cosmetic: %v", err)
	}
	if graph.Digest(g1) != graph.Digest(g2) {
		t.Error("cosmetic wire-form change moved the digest")
	}

	// Round-tripping through the codec preserves the digest.
	var buf bytes.Buffer
	if err := graph.WriteTo(&buf, g1); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	g3, err := graph.ReadGraph(&buf)
	if err != nil {
		t.Fatalf("ReadGraph round-trip: %v", err)
	}
	if graph.Digest(g1) != graph.Digest(g3) {
		t.Error("codec round-trip moved the digest")
	}

	// A structural change — one extra node — must move it.
	g4, err := graph.ReadGraph(strings.NewReader(strings.Replace(wire, "nodes 4", "nodes 5", 1)))
	if err != nil {
		t.Fatalf("ReadGraph grown: %v", err)
	}
	if graph.Digest(g1) == graph.Digest(g4) {
		t.Error("structural change did not move the digest")
	}
}

// TestDigestGolden pins graph.Digest byte for byte. The digest keys the
// edsd result cache and picks each graph's owner replica, so a change to
// it splits a fleet of mixed versions and invalidates every cache.
func TestDigestGolden(t *testing.T) {
	cycle := graph.MustFromUndirected(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	b := graph.NewBuilder(2)
	b.MustConnect(0, 1, 1, 2)
	b.MustConnect(0, 2, 1, 1)
	b.MustConnect(0, 3, 0, 3) // directed loop
	b.MustConnect(1, 3, 1, 4) // undirected loop
	multi := b.MustBuild()
	tests := []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"cycle", cycle, "0eb30e29104e47abe0548aa37a3d9701c598d8b44bec6a76299a31b633835d14"},
		{"multigraph with loops", multi, "f035a8da3a47a7c8450b4be3ff5c94f920e084421a725599105df94748da39f3"},
		{"empty", graph.NewBuilder(0).MustBuild(), "5981693c8df83eea16da42a0f748facb299546688544a0c2887ed5ffbf086e86"},
	}
	for _, tc := range tests {
		d := graph.Digest(tc.g)
		if got := hex.EncodeToString(d[:]); got != tc.want {
			t.Errorf("%s: Digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestZeroGraph checks the documented zero value: it is the empty graph.
func TestZeroGraph(t *testing.T) {
	var g graph.Graph
	if g.N() != 0 || g.M() != 0 || g.NumPorts() != 0 {
		t.Errorf("zero graph: N=%d M=%d NumPorts=%d, want 0 0 0", g.N(), g.M(), g.NumPorts())
	}
	if off := g.PortOffsets(); len(off) != 1 || off[0] != 0 {
		t.Errorf("zero graph: PortOffsets = %v, want [0]", off)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("zero graph: Validate = %v", err)
	}
	var buf bytes.Buffer
	if err := graph.WriteTo(&buf, &g); err != nil || buf.String() != "nodes 0\n" {
		t.Errorf("zero graph: WriteTo = %q, %v; want %q", buf.String(), err, "nodes 0\n")
	}
	if graph.Digest(&g) != graph.Digest(graph.NewBuilder(0).MustBuild()) {
		t.Error("zero graph digests differently from the built empty graph")
	}
}
