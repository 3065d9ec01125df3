package graph

import (
	"testing"
)

// checkRouting asserts the flat routing view matches the involution P and
// is a self-inverse permutation of the global port space.
func checkRouting(t *testing.T, g *Graph) {
	t.Helper()
	off := g.PortOffsets()
	route := g.RoutingTable()
	if len(off) != g.N()+1 {
		t.Fatalf("PortOffsets length = %d, want %d", len(off), g.N()+1)
	}
	total := 0
	for v := 0; v < g.N(); v++ {
		if int(off[v]) != total {
			t.Fatalf("PortOffsets[%d] = %d, want %d", v, off[v], total)
		}
		total += g.Deg(v)
	}
	if int(off[g.N()]) != total || g.NumPorts() != total || len(route) != total {
		t.Fatalf("port space size mismatch: off[n]=%d NumPorts=%d len(route)=%d want %d",
			off[g.N()], g.NumPorts(), len(route), total)
	}
	for j := range route {
		p := route[j]
		if p < 0 || int(p) >= total {
			t.Fatalf("route[%d] = %d out of range [0,%d)", j, p, total)
		}
		if route[p] != int32(j) {
			t.Fatalf("routing table not self-inverse: route[%d]=%d but route[%d]=%d", j, p, p, route[p])
		}
	}
	for v := 0; v < g.N(); v++ {
		for i := 1; i <= g.Deg(v); i++ {
			q := g.P(v, i)
			want := off[q.Node] + int32(q.Num-1)
			if got := route[off[v]+int32(i-1)]; got != want {
				t.Fatalf("route for port (%d,%d) = %d, want %d (P=%v)", v, i, got, want, q)
			}
			if got := g.EdgeIndex()[off[v]+int32(i-1)]; int(got) != g.EdgeAt(v, i) {
				t.Fatalf("EdgeIndex for port (%d,%d) = %d, EdgeAt says %d", v, i, got, g.EdgeAt(v, i))
			}
		}
	}
}

func TestRoutingTableSimple(t *testing.T) {
	g := MustFromUndirected(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	checkRouting(t, g)
}

func TestRoutingTableMultigraph(t *testing.T) {
	// Undirected loop (ports 1-2), directed loop (port 3, a fixed point),
	// and a parallel pair to node 1.
	b := NewBuilder(2)
	b.MustConnect(0, 1, 0, 2)
	b.MustConnect(0, 3, 0, 3)
	b.MustConnect(0, 4, 1, 1)
	b.MustConnect(0, 5, 1, 2)
	g := b.MustBuild()
	checkRouting(t, g)
	route := g.RoutingTable()
	if route[2] != 2 {
		t.Errorf("directed loop is not a fixed point: route[2] = %d", route[2])
	}
	if route[0] != 1 || route[1] != 0 {
		t.Errorf("undirected loop not routed within the node: route[0]=%d route[1]=%d", route[0], route[1])
	}
}

func TestRoutingTableEmptyAndIsolated(t *testing.T) {
	empty := NewBuilder(0).MustBuild()
	if empty.NumPorts() != 0 || len(empty.PortOffsets()) != 1 {
		t.Errorf("empty graph: NumPorts=%d len(off)=%d", empty.NumPorts(), len(empty.PortOffsets()))
	}
	iso := MustFromUndirected(3, nil)
	checkRouting(t, iso)
	if iso.NumPorts() != 0 {
		t.Errorf("isolated nodes: NumPorts = %d, want 0", iso.NumPorts())
	}
}

func TestRoutingTableCached(t *testing.T) {
	g := MustFromUndirected(3, [][2]int{{0, 1}, {1, 2}})
	r1 := g.RoutingTable()
	r2 := g.RoutingTable()
	if &r1[0] != &r2[0] {
		t.Error("RoutingTable not cached: distinct backing arrays")
	}
}
