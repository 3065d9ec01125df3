package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/sim"
	"eds/internal/verify"
)

// BaselineRow compares the distributed algorithm against centralized
// baselines over a batch of random instances: total edges selected by
// each method. The centralized methods see the whole graph; the
// distributed one sees only ports — the gap is the price of locality and
// anonymity on typical (non-adversarial) inputs.
type BaselineRow struct {
	Nodes, MaxDeg, Trials int
	// Totals over all trials.
	Distributed, GreedyMM, GreedyEDS, Exact int
	// ExactAll reports whether every instance was within the exact
	// solver's budget.
	ExactAll bool
}

// BaselineComparison runs A(Δ), the greedy maximal matching, the greedy
// EDS heuristic, and (when tractable) the exact solver on a batch of
// random bounded-degree graphs.
func BaselineComparison(seed int64, n, maxDeg, trials int) (BaselineRow, error) {
	rng := rand.New(rand.NewSource(seed))
	row := BaselineRow{Nodes: n, MaxDeg: maxDeg, Trials: trials, ExactAll: true}
	for t := 0; t < trials; t++ {
		g := gen.RandomBoundedDegree(rng, n, maxDeg, 0.5)
		if g.M() == 0 {
			continue
		}
		res, err := sim.RunSequential(g, core.NewGeneral(maxDeg))
		if err != nil {
			return BaselineRow{}, err
		}
		d := res.Outputs
		if !verify.IsEdgeDominatingSet(g, d) {
			return BaselineRow{}, fmt.Errorf("harness: infeasible distributed output on trial %d", t)
		}
		row.Distributed += d.Count()
		row.GreedyMM += verify.GreedyMaximalMatching(g).Count()
		greedy := verify.GreedyEDS(g)
		if !verify.IsEdgeDominatingSet(g, greedy) {
			return BaselineRow{}, fmt.Errorf("harness: infeasible greedy EDS on trial %d", t)
		}
		row.GreedyEDS += greedy.Count()
		if g.M() <= exactThresholdEdges {
			row.Exact += verify.MinimumMaximalMatching(g).Count()
		} else {
			row.ExactAll = false
		}
	}
	return row, nil
}

// FormatBaseline renders comparison rows.
func FormatBaseline(rows []BaselineRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s %7s %7s  %12s %10s %10s %8s\n",
		"nodes", "maxdeg", "trials", "distributed", "greedy-mm", "greedy-eds", "exact")
	sb.WriteString(strings.Repeat("-", 70) + "\n")
	for _, r := range rows {
		exact := fmt.Sprint(r.Exact)
		if !r.ExactAll {
			exact = "n/a"
		}
		fmt.Fprintf(&sb, "%6d %7d %7d  %12d %10d %10d %8s\n",
			r.Nodes, r.MaxDeg, r.Trials, r.Distributed, r.GreedyMM, r.GreedyEDS, exact)
	}
	return sb.String()
}
