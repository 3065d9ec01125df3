package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/local"
	"eds/internal/lowerbound"
	"eds/internal/sim"
	"eds/internal/verify"
)

// StudyRow is one data point of a random-graph study: the algorithm's
// ratio against the best available lower bound on the optimum.
type StudyRow struct {
	Family    string
	Param     int // d or Δ
	Nodes     int
	Trials    int
	Algorithm string
	// AvgRatio averages |D| / opt over the trials, where opt is exact for
	// small instances and otherwise the lower bound
	// max(|greedy MM|/2, ⌈|E|/(2Δ-1)⌉) — making AvgRatio an upper
	// estimate of the true average ratio.
	AvgRatio float64
	// WorstRatio is the maximum over trials.
	WorstRatio float64
	// Exact reports whether the optimum was computed exactly.
	Exact bool
	// PaperBound is the worst-case bound for this family, for context.
	PaperBound float64
}

// exactThresholdEdges bounds the instance size handed to the exponential
// exact solver.
const exactThresholdEdges = 36

// optimumOrBound returns a lower bound on the minimum EDS size, exact
// when the instance is small. For large instances it uses the best of
// two polynomial bounds: ν(G)/2 (any maximal matching has at least half
// the edges of a maximum one, computed with Edmonds' blossom algorithm)
// and |E|/(2Δ-1) (each chosen edge dominates at most 2Δ-1 edges).
func optimumOrBound(g *graph.Graph) (size int, exact bool) {
	if g.M() == 0 {
		return 0, true
	}
	if g.M() <= exactThresholdEdges {
		return verify.MinimumMaximalMatching(g).Count(), true
	}
	nu := verify.MaximumMatching(g).Count()
	lb := (nu + 1) / 2
	dom := 2*g.MaxDegree() - 1
	if byDom := (g.M() + dom - 1) / dom; byDom > lb {
		lb = byDom
	}
	return lb, false
}

// RandomRegularStudy measures the typical-case ratio of the appropriate
// regular-graph algorithm (PortOne for even d, RegularOdd for odd d) on
// random d-regular graphs, quantifying how far typical inputs sit from
// the adversarial bound.
func RandomRegularStudy(seed int64, d, n, trials int) (StudyRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var alg sim.Algorithm
	var bound float64
	if d%2 == 0 {
		alg = core.PortOne{}
		bound = float64(4) - 2/float64(d)
	} else {
		alg = core.RegularOdd{}
		bound = float64(4) - 6/float64(d+1)
	}
	row := StudyRow{Family: "random d-regular", Param: d, Nodes: n, Trials: trials,
		Algorithm: alg.Name(), PaperBound: bound, Exact: true}
	var sum float64
	for t := 0; t < trials; t++ {
		g, err := gen.RandomRegular(rng, n, d)
		if err != nil {
			return StudyRow{}, err
		}
		res, err := sim.RunSequential(g, alg)
		if err != nil {
			return StudyRow{}, err
		}
		ds := res.Outputs
		if !verify.IsEdgeDominatingSet(g, ds) {
			return StudyRow{}, fmt.Errorf("harness: infeasible output on trial %d", t)
		}
		opt, exact := optimumOrBound(g)
		row.Exact = row.Exact && exact
		r := float64(ds.Count()) / float64(opt)
		sum += r
		if r > row.WorstRatio {
			row.WorstRatio = r
		}
	}
	row.AvgRatio = sum / float64(trials)
	return row, nil
}

// RandomBoundedStudy does the same for A(Δ) on random max-degree-Δ
// graphs.
func RandomBoundedStudy(seed int64, delta, n, trials int) (StudyRow, error) {
	rng := rand.New(rand.NewSource(seed))
	alg := core.NewGeneral(delta)
	k := delta / 2
	row := StudyRow{Family: "random max-deg Δ", Param: delta, Nodes: n, Trials: trials,
		Algorithm: alg.Name(), PaperBound: 4 - 1/float64(k), Exact: true}
	var sum float64
	for t := 0; t < trials; t++ {
		g := gen.RandomBoundedDegree(rng, n, delta, 0.6)
		if g.M() == 0 {
			continue
		}
		res, err := sim.RunSequential(g, alg)
		if err != nil {
			return StudyRow{}, err
		}
		ds := res.Outputs
		if !verify.IsEdgeDominatingSet(g, ds) {
			return StudyRow{}, fmt.Errorf("harness: infeasible output on trial %d", t)
		}
		opt, exact := optimumOrBound(g)
		row.Exact = row.Exact && exact
		r := float64(ds.Count()) / float64(opt)
		sum += r
		if r > row.WorstRatio {
			row.WorstRatio = r
		}
	}
	row.AvgRatio = sum / float64(trials)
	return row, nil
}

// RandomizedBaselineStudy measures the Ext-B ablation: a randomized
// maximal matching (symmetry broken by per-node coins, which the paper's
// deterministic anonymous model forbids) on the same adversarial
// construction where every deterministic algorithm is forced to ratio
// 4 - 2/d. Randomness collapses the ratio to at most 2.
func RandomizedBaselineStudy(seed int64, d, trials int) (StudyRow, error) {
	if d%2 != 0 {
		return StudyRow{}, fmt.Errorf("harness: randomized baseline study uses the even construction, got d=%d", d)
	}
	rng := rand.New(rand.NewSource(seed))
	row := StudyRow{Family: "Thm-1 construction", Param: d, Trials: trials,
		Algorithm: "randomized-mm", PaperBound: 2}
	c, err := lowerbound.Even(d)
	if err != nil {
		return StudyRow{}, err
	}
	row.Nodes = c.G.N()
	opt := c.Opt.Count()
	var sum float64
	for t := 0; t < trials; t++ {
		mm := local.RandomizedMaximalMatching(rng, c.G)
		if !verify.IsMaximalMatching(c.G, mm) {
			return StudyRow{}, fmt.Errorf("harness: randomized baseline produced a non-maximal matching")
		}
		r := float64(mm.Count()) / float64(opt)
		sum += r
		if r > row.WorstRatio {
			row.WorstRatio = r
		}
	}
	row.AvgRatio = sum / float64(trials)
	row.Exact = true
	return row, nil
}

// FormatStudy renders study rows as an aligned table.
func FormatStudy(rows []StudyRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %5s %6s %7s  %-22s %9s %9s %7s %10s\n",
		"family", "param", "nodes", "trials", "algorithm", "avg", "worst", "exact", "paper-bound")
	sb.WriteString(strings.Repeat("-", 108) + "\n")
	for _, r := range rows {
		exact := "no"
		if r.Exact {
			exact = "yes"
		}
		fmt.Fprintf(&sb, "%-20s %5d %6d %7d  %-22s %9.4f %9.4f %7s %10.4f\n",
			r.Family, r.Param, r.Nodes, r.Trials, r.Algorithm,
			r.AvgRatio, r.WorstRatio, exact, r.PaperBound)
	}
	return sb.String()
}
