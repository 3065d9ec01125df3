// Package harness regenerates the paper's evaluation artifacts: Table 1
// (tight approximation ratios, measured as exact rationals on the
// adversarial constructions), the round-complexity series, and the
// random-graph comparison studies used in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strings"

	"eds/internal/core"
	"eds/internal/graph"
	"eds/internal/lowerbound"
	"eds/internal/ratio"
	"eds/internal/sim"
	"eds/internal/verify"
)

// Table1Row is one regenerated row of Table 1: an algorithm executed on
// the matching adversarial instance, with the measured ratio compared to
// the paper's closed-form bound.
type Table1Row struct {
	// Family is "d-regular" or "max degree Δ".
	Family string
	// Param is d or Δ.
	Param int
	// Algorithm is the name of the executed algorithm.
	Algorithm string
	// Nodes and Edges describe the adversarial instance.
	Nodes, Edges int
	// SizeD is the algorithm's output size, SizeOpt the instance optimum.
	SizeD, SizeOpt int
	// Measured = SizeD/SizeOpt exactly; Paper is the Table 1 bound.
	Measured, Paper ratio.R
	// Tight reports Measured == Paper.
	Tight bool
	// Rounds is the observed round count; ScheduledRounds the algorithm's
	// declared schedule length.
	Rounds, ScheduledRounds int
	// Messages is the total number of non-empty messages.
	Messages int
}

// runRow executes alg on the instance and assembles a row.
func runRow(family string, param int, g *graph.Graph, opt *graph.EdgeSet,
	alg sim.Algorithm, scheduled int, paper ratio.R) (Table1Row, error) {
	res, err := sim.RunSequential(g, alg)
	if err != nil {
		return Table1Row{}, fmt.Errorf("harness: %s on %s d=%d: %w", alg.Name(), family, param, err)
	}
	d := res.Outputs
	if !verify.IsEdgeDominatingSet(g, d) {
		return Table1Row{}, fmt.Errorf("harness: %s on %s d=%d: output infeasible", alg.Name(), family, param)
	}
	measured := ratio.New(int64(d.Count()), int64(opt.Count()))
	return Table1Row{
		Family:          family,
		Param:           param,
		Algorithm:       alg.Name(),
		Nodes:           g.N(),
		Edges:           g.M(),
		SizeD:           d.Count(),
		SizeOpt:         opt.Count(),
		Measured:        measured,
		Paper:           paper,
		Tight:           measured.Equal(paper),
		Rounds:          res.Rounds,
		ScheduledRounds: scheduled,
		Messages:        res.Messages,
	}, nil
}

// EvenRegularRow reproduces the "d even" row of Table 1 for one d:
// Theorem 3's algorithm on the Theorem 1 construction.
func EvenRegularRow(d int) (Table1Row, error) {
	c, err := lowerbound.Even(d)
	if err != nil {
		return Table1Row{}, err
	}
	alg := core.PortOne{}
	return runRow("d-regular (even)", d, c.G, c.Opt, alg, alg.Rounds(d), ratio.EvenRegularBound(d))
}

// OddRegularRow reproduces the "d odd" row for one d: Theorem 4's
// algorithm on the Theorem 2 construction.
func OddRegularRow(d int) (Table1Row, error) {
	c, err := lowerbound.Odd(d)
	if err != nil {
		return Table1Row{}, err
	}
	alg := core.RegularOdd{}
	return runRow("d-regular (odd)", d, c.G, c.Opt, alg, alg.Rounds(d), ratio.OddRegularBound(d))
}

// DeltaOneRow reproduces the Δ = 1 row: the trivial algorithm on a
// perfect matching.
func DeltaOneRow(edges int) (Table1Row, error) {
	g := genPerfectMatching(edges)
	opt := graph.NewEdgeSet(g.M())
	for i := 0; i < g.M(); i++ {
		opt.Add(i)
	}
	alg := core.AllEdges{}
	return runRow("max degree Δ", 1, g, opt, alg, alg.Rounds(1), ratio.FromInt(1))
}

// genPerfectMatching avoids importing gen here (it would be fine, but the
// construction is two lines).
func genPerfectMatching(k int) *graph.Graph {
	edges := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		edges = append(edges, [2]int{2 * i, 2*i + 1})
	}
	return graph.MustFromUndirected(2*k, edges)
}

// BoundedDegreeRow reproduces the "max degree Δ" rows for Δ >= 2:
// Theorem 5's A(Δ) on the Corollary 1 instance (the Theorem 1 graph with
// d = 2k, k = ⌊Δ/2⌋).
func BoundedDegreeRow(delta int) (Table1Row, error) {
	if delta < 2 {
		return DeltaOneRow(8)
	}
	k := delta / 2
	c, err := lowerbound.Even(2 * k)
	if err != nil {
		return Table1Row{}, err
	}
	alg := core.NewGeneral(delta)
	return runRow("max degree Δ", delta, c.G, c.Opt, alg, alg.Rounds(delta), ratio.BoundedDegreeBound(delta))
}

// Table1 regenerates the full table for d = 2..maxEven (even),
// d = 1..maxOdd (odd), Δ = 1..maxDelta.
func Table1(maxEven, maxOdd, maxDelta int) ([]Table1Row, error) {
	var rows []Table1Row
	for d := 2; d <= maxEven; d += 2 {
		row, err := EvenRegularRow(d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for d := 1; d <= maxOdd; d += 2 {
		row, err := OddRegularRow(d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for delta := 1; delta <= maxDelta; delta++ {
		row, err := BoundedDegreeRow(delta)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders rows as an aligned text table mirroring the
// paper's Table 1, with the measured columns added.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %5s  %-22s %6s %6s %5s %5s  %-9s %-9s %-6s %7s %9s\n",
		"family", "param", "algorithm", "nodes", "edges", "|D|", "|D*|",
		"measured", "paper", "tight", "rounds", "messages")
	sb.WriteString(strings.Repeat("-", 122) + "\n")
	for _, r := range rows {
		tight := "no"
		if r.Tight {
			tight = "yes"
		}
		fmt.Fprintf(&sb, "%-18s %5d  %-22s %6d %6d %5d %5d  %-9s %-9s %-6s %7d %9d\n",
			r.Family, r.Param, r.Algorithm, r.Nodes, r.Edges, r.SizeD, r.SizeOpt,
			r.Measured.String(), r.Paper.String(), tight, r.Rounds, r.Messages)
	}
	return sb.String()
}
