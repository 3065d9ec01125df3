// Package figures regenerates the paper's Figures 1-9 as machine-checked
// artifacts: for every figure it rebuilds the depicted object (graph,
// port numbering, matching family, algorithm phase output, or cost
// decomposition), validates the properties the paper states about it, and
// renders DOT + text.
//
// Figures 2 and 3 are hand-drawn examples whose exact wiring is not
// recoverable from the paper's text; for those the artifact is a
// reconstruction satisfying every property the text asserts (noted in the
// artifact's facts).
package figures

import (
	"fmt"
	"math/rand"

	"eds/internal/core"
	"eds/internal/cover"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/local"
	"eds/internal/lowerbound"
	"eds/internal/render"
	"eds/internal/sim"
	"eds/internal/verify"
)

// Artifact is one regenerated figure.
type Artifact struct {
	ID    int
	Title string
	// DOT and Text are the rendered artifact bodies.
	DOT, Text string
	// Facts lists the properties that were checked while building the
	// artifact; every fact in the list has been verified programmatically.
	Facts []string
}

// Figure regenerates figure id (1..9).
func Figure(id int) (*Artifact, error) {
	switch id {
	case 1:
		return figure1()
	case 2:
		return figure2()
	case 3:
		return figure3()
	case 4:
		return figure4()
	case 5:
		return figure5()
	case 6:
		return figure6()
	case 7:
		return figure7()
	case 8:
		return figure8()
	case 9:
		return figure9()
	default:
		return nil, fmt.Errorf("figures: no figure %d (valid: 1..9)", id)
	}
}

// All regenerates every figure.
func All() ([]*Artifact, error) {
	out := make([]*Artifact, 0, 9)
	for id := 1; id <= 9; id++ {
		a, err := Figure(id)
		if err != nil {
			return nil, fmt.Errorf("figures: figure %d: %w", id, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// fact appends a printf-style verified fact.
func (a *Artifact) fact(format string, args ...any) {
	a.Facts = append(a.Facts, fmt.Sprintf(format, args...))
}

// figure1 — edge dominating sets vs matchings on an example graph: (a) an
// EDS, (b) a maximal matching, (c) a minimum EDS, (d) a minimum maximal
// matching, with |c| = |d| (Yannakakis-Gavril).
func figure1() (*Artifact, error) {
	// An 8-node graph with enough structure that the four sets differ.
	g := graph.MustFromUndirected(8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}, {2, 5}, {4, 5}, {4, 6}, {5, 7},
	})
	a := &Artifact{ID: 1, Title: "Figure 1: edge dominating sets and matchings"}

	res, err := local.General(g, g.MaxDegree())
	if err != nil {
		return nil, err
	}
	eds := res.D
	mm := verify.GreedyMaximalMatching(g)
	minEDS := verify.MinimumEdgeDominatingSet(g)
	minMM := verify.MinimumMaximalMatching(g)

	if !verify.IsEdgeDominatingSet(g, eds) {
		return nil, fmt.Errorf("(a) is not an EDS")
	}
	a.fact("(a) A(Δ) output is an edge dominating set of size %d", eds.Count())
	if !verify.IsMaximalMatching(g, mm) {
		return nil, fmt.Errorf("(b) is not a maximal matching")
	}
	if !verify.IsEdgeDominatingSet(g, mm) {
		return nil, fmt.Errorf("(b) is not an EDS")
	}
	a.fact("(b) maximal matching of size %d is an EDS too", mm.Count())
	if !verify.IsEdgeDominatingSet(g, minEDS) {
		return nil, fmt.Errorf("(c) is not an EDS")
	}
	a.fact("(c) minimum EDS has size %d", minEDS.Count())
	if !verify.IsMaximalMatching(g, minMM) {
		return nil, fmt.Errorf("(d) is not a maximal matching")
	}
	a.fact("(d) minimum maximal matching has size %d", minMM.Count())
	if minEDS.Count() != minMM.Count() {
		return nil, fmt.Errorf("minimum EDS %d != minimum maximal matching %d", minEDS.Count(), minMM.Count())
	}
	a.fact("minimum EDS size = minimum maximal matching size (Yannakakis-Gavril)")

	opts := render.Options{
		Title: a.Title,
		Overlays: []render.Overlay{
			{Name: "(c) minimum EDS", Set: minEDS, Color: "red"},
			{Name: "(d) minimum maximal matching", Set: minMM, Color: "blue"},
			{Name: "(b) maximal matching", Set: mm, Color: "darkgreen"},
			{Name: "(a) edge dominating set", Set: eds, Color: "orange"},
		},
	}
	a.DOT = render.DOT(g, opts)
	a.Text = render.Text(g, opts)
	return a, nil
}

// figure2 — a port-numbered simple graph H and a port-numbered
// multigraph M (reconstruction; see the package comment).
func figure2() (*Artifact, error) {
	a := &Artifact{ID: 2, Title: "Figure 2: port-numbered graphs H (simple) and M (multigraph)"}
	// H: the Section 5 example properties.
	bh := graph.NewBuilder(4)
	bh.MustConnect(0, 1, 2, 2)
	bh.MustConnect(0, 2, 1, 1)
	bh.MustConnect(1, 2, 3, 2)
	bh.MustConnect(2, 1, 3, 1)
	h := bh.MustBuild()
	labels := []string{"a", "b", "c", "d"}
	if _, _, ok := core.DistinguishablePort(h, 0); ok {
		return nil, fmt.Errorf("node a unexpectedly has a uniquely labelled edge")
	}
	a.fact("H: node a has no uniquely labelled edges")
	if i, _, ok := core.DistinguishablePort(h, 1); !ok || h.P(1, i).Node != 0 {
		return nil, fmt.Errorf("distinguishable neighbour of b is not a")
	}
	a.fact("H: a is the distinguishable neighbour of b")
	if i, _, ok := core.DistinguishablePort(h, 2); !ok || h.P(2, i).Node != 3 {
		return nil, fmt.Errorf("distinguishable neighbour of c is not d")
	}
	a.fact("H: d is the distinguishable neighbour of c")

	// M: the paper's exact multigraph — V = {s,t}, deg(s)=3, deg(t)=4,
	// p: (s,1)<->(t,2), (s,2)<->(t,1), (s,3) fixed point, (t,3)<->(t,4).
	bm := graph.NewBuilder(2)
	bm.MustConnect(0, 1, 1, 2)
	bm.MustConnect(0, 2, 1, 1)
	bm.MustConnect(0, 3, 0, 3)
	bm.MustConnect(1, 3, 1, 4)
	m := bm.MustBuild()
	if m.Deg(0) != 3 || m.Deg(1) != 4 {
		return nil, fmt.Errorf("M degrees wrong")
	}
	a.fact("M: d(s) = 3 with a directed loop, d(t) = 4 with an undirected loop")

	optsH := render.Options{Title: "H", NodeLabels: labels, Ports: true}
	optsM := render.Options{Title: "M", NodeLabels: []string{"s", "t"}, Ports: true}
	a.DOT = render.DOT(h, optsH) + "\n" + render.DOT(m, optsM)
	a.Text = render.Text(h, optsH) + "\n" + render.Text(m, optsM)
	return a, nil
}

// figure3 — a simple covering graph C of a multigraph M, plus the
// execution-equivalence consequence: every algorithm produces identical
// outputs on a fibre.
func figure3() (*Artifact, error) {
	a := &Artifact{ID: 3, Title: "Figure 3: a covering graph C of a multigraph M"}
	// M: two nodes (grey, white), each with an undirected loop (ports
	// 1-2) and a shared edge (port 3 on both). 3-regular.
	bm := graph.NewBuilder(2)
	bm.MustConnect(0, 1, 0, 2)
	bm.MustConnect(1, 1, 1, 2)
	bm.MustConnect(0, 3, 1, 3)
	m := bm.MustBuild()
	// C: a triangular prism — grey fibre {g0,g1,g2} on a directed
	// 3-cycle of (1,2) ports, white fibre likewise, spokes on port 3.
	bc := graph.NewBuilder(6)
	for i := 0; i < 3; i++ {
		bc.MustConnect(i, 1, (i+1)%3, 2)     // grey cycle
		bc.MustConnect(3+i, 1, 3+(i+1)%3, 2) // white cycle
		bc.MustConnect(i, 3, 3+i, 3)         // spokes
	}
	c := bc.MustBuild()
	f := []int{0, 0, 0, 1, 1, 1}
	if err := cover.Verify(c, m, f); err != nil {
		return nil, fmt.Errorf("covering map invalid: %w", err)
	}
	a.fact("f is a covering map from C (simple, 6 nodes) onto M (2 nodes with loops)")
	if !c.IsSimple() {
		return nil, fmt.Errorf("C is not simple")
	}
	a.fact("C is simple although M has loops")

	// Execution equivalence (Section 2.3) for an actual algorithm.
	alg := core.NewGeneral(3)
	rc, err := sim.RunSequential(c, alg)
	if err != nil {
		return nil, err
	}
	rm, err := sim.RunSequential(m, alg)
	if err != nil {
		return nil, err
	}
	for v := 0; v < c.N(); v++ {
		if fmt.Sprint(graph.PortsIn(c, rc.Outputs, v)) != fmt.Sprint(graph.PortsIn(m, rm.Outputs, f[v])) {
			return nil, fmt.Errorf("outputs differ on fibre: node %d", v)
		}
	}
	a.fact("running %s: every node of C outputs exactly what its image in M outputs", alg.Name())

	labels := []string{"g0", "g1", "g2", "w0", "w1", "w2"}
	optsC := render.Options{Title: "C (covering graph)", NodeLabels: labels, Ports: true, Classes: f}
	optsM := render.Options{Title: "M (base multigraph)", NodeLabels: []string{"g", "w"}, Ports: true, Classes: []int{0, 1}}
	a.DOT = render.DOT(c, optsC) + "\n" + render.DOT(m, optsM)
	a.Text = render.Text(c, optsC) + "\n" + render.Text(m, optsM)
	return a, nil
}

// factorOverlays extracts the 2-factor colour classes of a pair-port-
// numbered graph: factor i = edges joining port 2i-1 to port 2i.
func factorOverlays(g *graph.Graph, k int) []render.Overlay {
	palette := []string{"red", "blue", "darkgreen", "orange", "purple", "brown"}
	overlays := make([]render.Overlay, 0, k)
	for i := 1; i <= k; i++ {
		s := graph.NewEdgeSet(g.M())
		for idx, e := range g.Edges() {
			lo, hi := e.A.Num, e.B.Num
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo == 2*i-1 && hi == 2*i {
				s.Add(idx)
			}
		}
		overlays = append(overlays, render.Overlay{
			Name:  fmt.Sprintf("factor G(%d)", i),
			Set:   s,
			Color: palette[(i-1)%len(palette)],
		})
	}
	return overlays
}

// figure4 — the Theorem 1 construction for d = 6: the graph, its optimal
// set S, its 2-factorisation, and the covering map onto the one-node
// multigraph.
func figure4() (*Artifact, error) {
	const d = 6
	a := &Artifact{ID: 4, Title: "Figure 4: the Theorem 1 graph for d = 6"}
	c, err := lowerbound.Even(d)
	if err != nil {
		return nil, err
	}
	if err := cover.Verify(c.G, c.Quotient, c.Map); err != nil {
		return nil, err
	}
	a.fact("G is %d-regular on %d nodes and covers the 1-node multigraph M", d, c.G.N())
	a.fact("optimal edge dominating set S has %d edges", c.Opt.Count())

	overlays := factorOverlays(c.G, d/2)
	for _, ov := range overlays {
		deg := graph.DegreeIn(c.G, ov.Set)
		for v := 0; v < c.G.N(); v++ {
			if deg[v] != 2 {
				return nil, fmt.Errorf("%s is not a 2-factor at node %d", ov.Name, v)
			}
		}
	}
	a.fact("ports (2i-1, 2i) decompose G into %d spanning 2-factors", d/2)

	res, err := sim.RunSequential(c.G, core.PortOne{})
	if err != nil {
		return nil, err
	}
	ds := res.Outputs
	if !ds.Equal(overlays[0].Set) {
		return nil, fmt.Errorf("PortOne output is not exactly factor G(1)")
	}
	a.fact("the Theorem 3 algorithm selects exactly factor G(1): %d edges vs optimum %d (ratio %d/%d = 4-2/d)",
		ds.Count(), c.Opt.Count(), ds.Count(), c.Opt.Count())

	labels := make([]string, c.G.N())
	for i := 0; i < d; i++ {
		labels[i] = fmt.Sprintf("a%d", i+1)
	}
	for j := 0; j < d-1; j++ {
		labels[d+j] = fmt.Sprintf("b%d", j+1)
	}
	opts := render.Options{
		Title:      a.Title,
		NodeLabels: labels,
		Ports:      true,
		Overlays:   append([]render.Overlay{{Name: "optimum S", Set: c.Opt, Color: "black"}}, overlays...),
	}
	a.DOT = render.DOT(c.G, opts)
	a.Text = render.Text(c.G, opts)
	return a, nil
}

// figure5 — the component H(ℓ) for d = 5.
func figure5() (*Artifact, error) {
	const d = 5
	a := &Artifact{ID: 5, Title: "Figure 5: the component H(ℓ) for d = 5"}
	h, err := lowerbound.Component(d)
	if err != nil {
		return nil, err
	}
	k := (d - 1) / 2
	if got, ok := h.Regular(); !ok || got != 2*k {
		return nil, fmt.Errorf("H(ℓ) is not %d-regular", 2*k)
	}
	a.fact("H(ℓ) is %d-regular on %d nodes (star R + matching S + crown T)", 2*k, h.N())
	sSet := graph.NewEdgeSet(h.M())
	for t := 0; t < k; t++ {
		i := h.PortBetween(2*t, 2*t+1)
		if i == 0 {
			return nil, fmt.Errorf("matching edge {a%d,a%d} missing", 2*t+1, 2*t+2)
		}
		sSet.Add(h.EdgeAt(2*t, i))
	}
	a.fact("S(ℓ) is a %d-edge matching on the a-nodes", sSet.Count())

	labels := make([]string, h.N())
	for i := 0; i < 2*k; i++ {
		labels[i] = fmt.Sprintf("a%d", i+1)
		labels[2*k+i] = fmt.Sprintf("b%d", i+1)
	}
	labels[4*k] = "c"
	opts := render.Options{
		Title:      a.Title,
		NodeLabels: labels,
		Ports:      true,
		Overlays:   append([]render.Overlay{{Name: "S(ℓ)", Set: sSet, Color: "black"}}, factorOverlays(h, k)...),
	}
	a.DOT = render.DOT(h, opts)
	a.Text = render.Text(h, opts)
	return a, nil
}

// oddLabels builds human labels for the Theorem 2 construction.
func oddLabels(d int) []string {
	k := (d - 1) / 2
	labels := make([]string, d*(2*d-1)+d+2*k)
	idx := 0
	for ell := 1; ell <= d; ell++ {
		for i := 1; i <= 2*k; i++ {
			labels[idx] = fmt.Sprintf("a%d,%d", ell, i)
			idx++
		}
		for i := 1; i <= 2*k; i++ {
			labels[idx] = fmt.Sprintf("b%d,%d", ell, i)
			idx++
		}
		labels[idx] = fmt.Sprintf("c%d", ell)
		idx++
	}
	for ell := 1; ell <= d; ell++ {
		labels[idx] = fmt.Sprintf("p%d", ell)
		idx++
	}
	for i := 1; i <= 2*k; i++ {
		labels[idx] = fmt.Sprintf("q%d", i)
		idx++
	}
	return labels
}

// figure6 — the full Theorem 2 construction for d = 5 with its optimum.
func figure6() (*Artifact, error) {
	const d = 5
	a := &Artifact{ID: 6, Title: "Figure 6: the Theorem 2 graph for d = 5"}
	c, err := lowerbound.Odd(d)
	if err != nil {
		return nil, err
	}
	a.fact("G is %d-regular on %d nodes with %d edges", d, c.G.N(), c.G.M())
	a.fact("optimal edge dominating set D* = Y ∪ ⋃S(ℓ) has %d edges", c.Opt.Count())
	res, err := sim.RunSequential(c.G, core.RegularOdd{})
	if err != nil {
		return nil, err
	}
	ds := res.Outputs
	a.fact("the Theorem 4 algorithm outputs %d edges: ratio %d/%d = 4-6/(d+1)",
		ds.Count(), ds.Count(), c.Opt.Count())
	opts := render.Options{
		Title:      a.Title,
		NodeLabels: oddLabels(d),
		Classes:    c.Map,
		Overlays: []render.Overlay{
			{Name: "optimum D*", Set: c.Opt, Color: "black"},
			{Name: "Theorem 4 output D", Set: ds, Color: "red"},
		},
	}
	a.DOT = render.DOT(c.G, opts)
	a.Text = render.Text(c.G, opts)
	return a, nil
}

// figure7 — the quotient multigraph M of the Theorem 2 construction.
func figure7() (*Artifact, error) {
	const d = 5
	a := &Artifact{ID: 7, Title: "Figure 7: the quotient multigraph M for d = 5"}
	c, err := lowerbound.Odd(d)
	if err != nil {
		return nil, err
	}
	if err := cover.Verify(c.G, c.Quotient, c.Map); err != nil {
		return nil, err
	}
	a.fact("the Theorem 2 graph covers M: %d fibres x_ℓ of size 2d-1 and one fibre y of size d+2k",
		d)
	labels := make([]string, d+1)
	classes := make([]int, d+1)
	for ell := 0; ell < d; ell++ {
		labels[ell] = fmt.Sprintf("x%d", ell+1)
		classes[ell] = ell
	}
	labels[d] = "y"
	classes[d] = d
	opts := render.Options{Title: a.Title, NodeLabels: labels, Ports: true, Classes: classes}
	a.DOT = render.DOT(c.Quotient, opts)
	a.Text = render.Text(c.Quotient, opts)
	return a, nil
}

// figure8 — a 3-regular example: distinguishable neighbours, the nine
// matchings M_G(i,j), and phases I and II of the Theorem 4 algorithm.
func figure8() (*Artifact, error) {
	a := &Artifact{ID: 8, Title: "Figure 8: distinguishable neighbours and M_G(i,j) on a 3-regular graph"}
	rng := rand.New(rand.NewSource(11))
	g := gen.RelabelPorts(rng, gen.Petersen())

	// (a) every node has a distinguishable neighbour (3 is odd).
	for v := 0; v < g.N(); v++ {
		if _, _, ok := core.DistinguishablePort(g, v); !ok {
			return nil, fmt.Errorf("node %d has no distinguishable neighbour despite odd degree", v)
		}
	}
	a.fact("(a) every node of the 3-regular graph has a distinguishable neighbour (Lemma 1)")

	// (b) the matchings M_G(i,j).
	total := 0
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 3; j++ {
			m := core.MatchingM(g, i, j)
			if !verify.IsMatching(g, m) {
				return nil, fmt.Errorf("M_G(%d,%d) is not a matching", i, j)
			}
			total += m.Count()
		}
	}
	a.fact("(b) all nine M_G(i,j) are matchings (Lemma 2), %d memberships in total", total)

	// (c)+(d) the two phases.
	res, err := sim.RunSequential(g, core.RegularOdd{SkipPruning: true})
	if err != nil {
		return nil, err
	}
	phase1 := res.Outputs
	if !verify.IsEdgeCover(g, phase1) || !verify.IsForest(g, phase1) {
		return nil, fmt.Errorf("phase I output is not a spanning forest edge cover")
	}
	a.fact("(c) phase I builds a spanning forest that covers every node (%d edges)", phase1.Count())
	res, err = sim.RunSequential(g, core.RegularOdd{})
	if err != nil {
		return nil, err
	}
	phase2 := res.Outputs
	if !verify.IsStarForest(g, phase2) || !verify.IsEdgeCover(g, phase2) {
		return nil, fmt.Errorf("phase II output is not a star-forest edge cover")
	}
	a.fact("(d) phase II prunes it to a star forest (%d edges), still an edge cover", phase2.Count())

	opts := render.Options{
		Title: a.Title,
		Ports: true,
		Overlays: []render.Overlay{
			{Name: "phase II output (star forest)", Set: phase2, Color: "red"},
			{Name: "phase I output (forest edge cover)", Set: phase1, Color: "blue"},
		},
	}
	a.DOT = render.DOT(g, opts)
	a.Text = render.Text(g, opts)
	return a, nil
}

// figure9 — the Theorem 5 phase decomposition with the cost accounting of
// the analysis.
func figure9() (*Artifact, error) {
	a := &Artifact{ID: 9, Title: "Figure 9: Theorem 5 decomposition M, P and the cost accounting"}
	rng := rand.New(rand.NewSource(7))
	g := gen.RandomBoundedDegree(rng, 14, 5, 0.45)
	delta := g.MaxDegree()
	res, err := local.General(g, delta)
	if err != nil {
		return nil, err
	}
	if !verify.IsMatching(g, res.M) {
		return nil, fmt.Errorf("M is not a matching")
	}
	if !verify.IsKMatching(g, res.P, 2) {
		return nil, fmt.Errorf("P is not a 2-matching")
	}
	if !res.M.Disjoint(res.P) {
		return nil, fmt.Errorf("M and P are not disjoint")
	}
	a.fact("M is a matching (%d edges), P a node-disjoint 2-matching (%d edges)", res.M.Count(), res.P.Count())
	if !verify.IsEdgeDominatingSet(g, res.D) {
		return nil, fmt.Errorf("D = M ∪ P is not an EDS")
	}
	a.fact("D = M ∪ P dominates all %d edges", g.M())

	dstar := verify.MinimumMaximalMatching(g)
	acc, err := verify.Account(g, res.D, dstar)
	if err != nil {
		return nil, err
	}
	a.fact("internal-node costs: I_x counts for 2c(v)=0..4 are %v with Σx·I_x = 2|D| = %d", acc.I, 2*acc.SizeD)
	normalised := delta
	if normalised%2 == 0 {
		normalised++
	}
	if normalised >= 3 {
		if err := acc.CheckTheorem5Inequality(normalised); err != nil {
			return nil, err
		}
		a.fact("the Section 7.7 double-counting inequality holds for Δ = %d", normalised)
	}
	classes := make([]int, g.N())
	for v := range classes {
		if acc.Internal[v] {
			classes[v] = 1
		}
	}
	opts := render.Options{
		Title:   a.Title,
		Classes: classes,
		Overlays: []render.Overlay{
			{Name: "matching M", Set: res.M, Color: "red"},
			{Name: "2-matching P", Set: res.P, Color: "blue"},
			{Name: "minimum maximal matching D*", Set: dstar, Color: "black"},
		},
	}
	a.DOT = render.DOT(g, opts)
	a.Text = render.Text(g, opts)
	return a, nil
}
