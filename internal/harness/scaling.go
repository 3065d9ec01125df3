package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"eds/internal/core"
	"eds/internal/gen"
	"eds/internal/sim"
)

// ScalingRow is one data point of the Ext-C study: round counts as a
// function of n and d, demonstrating that the algorithms are strictly
// local (rounds depend on d only, never on n).
type ScalingRow struct {
	Algorithm string
	D, N      int
	Rounds    int
	Scheduled int
	Messages  int
}

// RoundScaling runs the appropriate regular-graph algorithm on random
// d-regular graphs of increasing size and records the observed rounds.
func RoundScaling(seed int64, d int, sizes []int) ([]ScalingRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var alg sim.Algorithm
	var scheduled int
	if d%2 == 0 {
		a := core.PortOne{}
		alg, scheduled = a, a.Rounds(d)
	} else {
		a := core.RegularOdd{}
		alg, scheduled = a, a.Rounds(d)
	}
	rows := make([]ScalingRow, 0, len(sizes))
	for _, n := range sizes {
		if n*d%2 != 0 {
			n++
		}
		g, err := gen.RandomRegular(rng, n, d)
		if err != nil {
			return nil, err
		}
		// Any engine returns the same rows; RunAuto picks the fast one.
		res, err := sim.RunAuto(g, alg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{
			Algorithm: alg.Name(),
			D:         d,
			N:         n,
			Rounds:    res.Rounds,
			Scheduled: scheduled,
			Messages:  res.Messages,
		})
	}
	return rows, nil
}

// FormatScaling renders scaling rows as an aligned table.
func FormatScaling(rows []ScalingRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %4s %7s %8s %10s %10s\n", "algorithm", "d", "n", "rounds", "scheduled", "messages")
	sb.WriteString(strings.Repeat("-", 68) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %4d %7d %8d %10d %10d\n", r.Algorithm, r.D, r.N, r.Rounds, r.Scheduled, r.Messages)
	}
	return sb.String()
}
