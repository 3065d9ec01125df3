package graph

import (
	"fmt"
	"math"
)

// Flat CSR-style routing view of the involution, consumed by engines that
// index ports globally instead of through (node, port) pairs.
//
// Ports are numbered globally in node order: port (v, i) has global index
// PortOffsets()[v] + i - 1, and the ports of node v occupy the half-open
// range [PortOffsets()[v], PortOffsets()[v+1]). The routing table maps
// every global port index to the global index of its involution partner,
// so a message written to a flat outbox at global port j is delivered by
// one store into a flat inbox: inbox[RoutingTable()[j]] = outbox[j].
// Because p is an involution the table is a self-inverse permutation —
// every inbox slot has exactly one sender — and directed loops are its
// fixed points.
//
// Both slices are computed once per graph and cached; callers must treat
// them as read-only.

// NumPorts returns the total number of ports, i.e. the sum of all node
// degrees (the length of the routing table).
func (g *Graph) NumPorts() int {
	g.buildRoutingOnce()
	return len(g.route)
}

// PortOffsets returns the per-node offsets into the global port space:
// a slice of length N()+1 where entry v is the global index of port
// (v, 1) and entry N() is the total port count. The caller must not
// modify the returned slice.
func (g *Graph) PortOffsets() []int32 {
	g.buildRoutingOnce()
	return g.portOff
}

// RoutingTable returns the flat involution: entry j is the global port
// index of P(v, i) where j is the global index of port (v, i). The table
// is a self-inverse permutation of [0, NumPorts()). The caller must not
// modify the returned slice.
func (g *Graph) RoutingTable() []int32 {
	g.buildRoutingOnce()
	return g.route
}

func (g *Graph) buildRoutingOnce() {
	g.routeOnce.Do(func() {
		n := len(g.conn)
		total := 0
		for v := 0; v < n; v++ {
			total += len(g.conn[v])
		}
		// The flat view indexes ports with int32; fail loudly rather
		// than let offsets wrap on graphs past that scale.
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("graph: %d ports exceed the routing table's int32 index space", total))
		}
		off := make([]int32, n+1)
		pos := int32(0)
		for v := 0; v < n; v++ {
			off[v] = pos
			pos += int32(len(g.conn[v]))
		}
		off[n] = pos
		route := make([]int32, total)
		for v := range g.conn {
			base := off[v]
			for i, q := range g.conn[v] {
				route[base+int32(i)] = off[q.Node] + int32(q.Num-1)
			}
		}
		g.portOff, g.route = off, route
	})
}
