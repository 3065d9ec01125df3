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
// Both slices are part of the graph's own storage, built with it by the
// one constructor that Builder.Build and ReadGraphLimits share; callers
// must treat them as read-only.

// NumPorts returns the total number of ports, i.e. the sum of all node
// degrees (the length of the routing table).
func (g *Graph) NumPorts() int { return len(g.ports) }

// PortOffsets returns the per-node offsets into the global port space:
// a slice of length N()+1 where entry v is the global index of port
// (v, 1) and entry N() is the total port count. The caller must not
// modify the returned slice.
func (g *Graph) PortOffsets() []int32 {
	if g.off == nil {
		return []int32{0} // the zero value: the empty graph
	}
	return g.off
}

// RoutingTable returns the flat involution: entry j is the global port
// index of P(v, i) where j is the global index of port (v, i). The table
// is a self-inverse permutation of [0, NumPorts()). The caller must not
// modify the returned slice.
func (g *Graph) RoutingTable() []int32 { return g.route }

// EdgeIndex returns the flat edge index: entry j is the index (into
// Edges) of the edge at global port j, as EdgeAt gives it per node.
// Both ports of an edge carry its index. The caller must not modify the
// returned slice.
func (g *Graph) EdgeIndex() []int32 { return g.edgeAt }

// checkPortSpace fails a graph with more ports than the global port
// numbering can index: the flat view uses int32, and offsets must not
// wrap.
func checkPortSpace(total int) error {
	if total > math.MaxInt32 {
		return fmt.Errorf("graph: %d ports exceed the routing table's int32 index space", total)
	}
	return nil
}
