package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

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

// EngineRow is one data point of the engine-scaling study: the same
// workload executed by each simulation engine, with the wall-clock time
// it took. Rounds and Messages are engine-invariant (the equivalence
// suite in internal/sim guarantees it), so the study reports them once
// per row only as a sanity check.
type EngineRow struct {
	Engine   string
	D, N     int
	Rounds   int
	Messages int
	Elapsed  time.Duration
	// Setup and RoundTime split Elapsed via sim.WithTimings: node
	// construction versus the round loop. The remainder is output
	// collection. The split shows where an engine's time goes — the
	// sharded engine parallelizes all three phases.
	Setup     time.Duration
	RoundTime time.Duration
}

// EngineScaling times every named engine on the same random d-regular
// graph of each size, verifying along the way that rounds and message
// counts agree across engines. Engine names: sequential, sharded.
func EngineScaling(seed int64, d int, sizes []int, engines []string) ([]EngineRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var alg sim.Algorithm
	if d%2 == 0 {
		alg = core.PortOne{}
	} else {
		alg = core.RegularOdd{}
	}
	var rows []EngineRow
	for _, n := range sizes {
		if n*d%2 != 0 {
			n++
		}
		g, err := gen.RandomRegular(rng, n, d)
		if err != nil {
			return nil, err
		}
		var ref *sim.Result
		for _, name := range engines {
			run, ok := sim.Engines()[name]
			if !ok {
				return nil, fmt.Errorf("harness: unknown engine %q", name)
			}
			var split sim.Timings
			start := time.Now()
			res, err := run(g, alg, sim.WithTimings(&split))
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("harness: engine %s on n=%d: %w", name, n, err)
			}
			if ref == nil {
				ref = res
			} else if res.Rounds != ref.Rounds || res.Messages != ref.Messages {
				return nil, fmt.Errorf("harness: engine %s diverges on n=%d: rounds %d/%d, messages %d/%d",
					name, n, res.Rounds, ref.Rounds, res.Messages, ref.Messages)
			}
			rows = append(rows, EngineRow{
				Engine:    name,
				D:         d,
				N:         n,
				Rounds:    res.Rounds,
				Messages:  res.Messages,
				Elapsed:   elapsed,
				Setup:     split.Setup,
				RoundTime: split.Rounds,
			})
		}
	}
	return rows, nil
}

// FormatEngineScaling renders engine rows as an aligned table.
func FormatEngineScaling(rows []EngineRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %4s %8s %8s %10s %12s %12s %12s\n", "engine", "d", "n", "rounds", "messages", "elapsed", "setup", "rounds-time")
	sb.WriteString(strings.Repeat("-", 86) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %4d %8d %8d %10d %12s %12s %12s\n", r.Engine, r.D, r.N, r.Rounds, r.Messages, r.Elapsed, r.Setup, r.RoundTime)
	}
	return sb.String()
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
