// Benchmarks regenerating every table and figure of the paper, plus the
// ablation and scaling studies of DESIGN.md. Each benchmark executes the
// full experiment per iteration and reports the measured approximation
// ratio and round count via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation artifacts alongside the runtime cost
// of the simulation itself.
package eds_test

import (
	"fmt"
	"math/rand"
	"testing"

	"eds/internal/core"
	"eds/internal/figures"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/harness"
	"eds/internal/local"
	"eds/internal/lowerbound"
	"eds/internal/sim"
	"eds/internal/verify"
)

// benchRun executes alg on g per iteration and reports ratio and rounds.
func benchRun(b *testing.B, g *graph.Graph, alg sim.Algorithm, opt int) {
	b.Helper()
	var lastSize, lastRounds int
	for i := 0; i < b.N; i++ {
		d, res, err := sim.RunToEdgeSet(g, alg)
		if err != nil {
			b.Fatal(err)
		}
		lastSize = d.Count()
		lastRounds = res.Rounds
	}
	if opt > 0 {
		b.ReportMetric(float64(lastSize)/float64(opt), "ratio")
	}
	b.ReportMetric(float64(lastRounds), "rounds")
	b.ReportMetric(float64(g.N()), "nodes")
}

// BenchmarkTable1 regenerates every row of Table 1 (the paper's only
// table): the matching algorithm on the adversarial construction, with
// the measured tight ratio reported as a metric.
func BenchmarkTable1(b *testing.B) {
	b.Run("EvenRegular", func(b *testing.B) {
		for _, d := range []int{2, 4, 6, 8, 10, 12, 14, 16} {
			c := lowerbound.MustEven(d)
			b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
				benchRun(b, c.G, core.PortOne{}, c.Opt.Count())
			})
		}
	})
	b.Run("OddRegular", func(b *testing.B) {
		for _, d := range []int{1, 3, 5, 7, 9, 11, 13} {
			c := lowerbound.MustOdd(d)
			b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
				benchRun(b, c.G, core.RegularOdd{}, c.Opt.Count())
			})
		}
	})
	b.Run("DeltaOne", func(b *testing.B) {
		g := gen.PerfectMatching(64)
		benchRun(b, g, core.AllEdges{}, 64)
	})
	b.Run("BoundedDegree", func(b *testing.B) {
		for _, delta := range []int{2, 3, 4, 5, 6, 7, 9, 11, 13} {
			k := delta / 2
			c := lowerbound.MustEven(2 * k)
			b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
				benchRun(b, c.G, core.NewGeneral(delta), c.Opt.Count())
			})
		}
	})
}

// BenchmarkFigures regenerates each of the paper's nine figures per
// iteration, including all property validation.
func BenchmarkFigures(b *testing.B) {
	for id := 1; id <= 9; id++ {
		b.Run(fmt.Sprintf("Fig%d", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := figures.Figure(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation measures the design choices DESIGN.md calls out.
func BenchmarkAblation(b *testing.B) {
	// Ext-A: phase II of Theorem 4 (pruning) is what brings 4-2/d down
	// to 4-6/(d+1). Compare both variants on the Theorem 2 construction.
	b.Run("NoPruning", func(b *testing.B) {
		for _, d := range []int{5, 9} {
			c := lowerbound.MustOdd(d)
			b.Run(fmt.Sprintf("d=%d/with-pruning", d), func(b *testing.B) {
				benchRun(b, c.G, core.RegularOdd{}, c.Opt.Count())
			})
			b.Run(fmt.Sprintf("d=%d/without-pruning", d), func(b *testing.B) {
				benchRun(b, c.G, core.RegularOdd{SkipPruning: true}, c.Opt.Count())
			})
		}
	})
	// Ext-B: what randomness would buy. The deterministic bound on the
	// Theorem 1 construction is 4-2/d; a randomized maximal matching
	// achieves at most 2.
	b.Run("Randomized", func(b *testing.B) {
		c := lowerbound.MustEven(8)
		rng := rand.New(rand.NewSource(1))
		opt := c.Opt.Count()
		var last int
		for i := 0; i < b.N; i++ {
			mm := local.RandomizedMaximalMatching(rng, c.G)
			last = mm.Count()
		}
		b.ReportMetric(float64(last)/float64(opt), "ratio")
	})
	// Ext-B': unique IDs (no randomness) also collapse the adversarial
	// ratio — anonymity, not determinism, is the bottleneck.
	b.Run("WithIDs", func(b *testing.B) {
		c := lowerbound.MustEven(8)
		opt := c.Opt.Count()
		var last int
		var rounds int
		for i := 0; i < b.N; i++ {
			mm, res, err := sim.RunToEdgeSet(c.G, core.IDMatching{})
			if err != nil {
				b.Fatal(err)
			}
			last = mm.Count()
			rounds = res.Rounds
		}
		b.ReportMetric(float64(last)/float64(opt), "ratio")
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkScaling shows locality: rounds depend on d, not n (Ext-C),
// and measures simulator throughput as n grows.
func BenchmarkScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{64, 256, 1024, 4096} {
		g := gen.MustRandomRegular(rng, n, 3)
		b.Run(fmt.Sprintf("RegularOdd3/n=%d", n), func(b *testing.B) {
			benchRun(b, g, core.RegularOdd{}, 0)
		})
	}
	for _, n := range []int{64, 1024, 16384} {
		g := gen.MustRandomRegular(rng, n, 4)
		b.Run(fmt.Sprintf("PortOne4/n=%d", n), func(b *testing.B) {
			benchRun(b, g, core.PortOne{}, 0)
		})
	}
}

// BenchmarkEngines times the sequential engine on a mid-sized workload.
func BenchmarkEngines(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := gen.MustRandomRegular(rng, 512, 5)
	alg := core.RegularOdd{}
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunSequential(g, alg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSharded compares both engines on large instances of the
// classic families — the workload class the sharded flat-buffer engine
// exists for — and then pushes the sharded engine alone to a million
// nodes. Per-iteration graph construction is excluded from the timing.
// The million-node cases are skipped under -short so CI smoke passes
// stay quick.
func BenchmarkSharded(b *testing.B) {
	engines := []struct {
		name string
		run  func(*graph.Graph, sim.Algorithm, ...sim.Option) (*sim.Result, error)
	}{
		{"sequential", sim.RunSequential},
		{"sharded", sim.RunSharded},
	}
	families := []struct {
		name  string
		build func() *graph.Graph
		alg   sim.Algorithm
	}{
		{"Cycle/n=100k", func() *graph.Graph { return gen.Cycle(100_000) }, core.PortOne{}},
		{"Torus/316x316", func() *graph.Graph { return gen.Torus(316, 316) }, core.PortOne{}},
		{"RandomRegular/n=100k,d=3", func() *graph.Graph {
			return gen.MustRandomRegular(rand.New(rand.NewSource(17)), 100_000, 3)
		}, core.RegularOdd{}},
	}
	for _, f := range families {
		g := f.build()
		for _, e := range engines {
			b.Run(f.name+"/"+e.name, func(b *testing.B) {
				b.ResetTimer()
				var rounds int
				for i := 0; i < b.N; i++ {
					res, err := e.run(g, f.alg)
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(g.N()), "nodes")
			})
		}
	}
	million := []struct {
		name  string
		build func() *graph.Graph
		alg   sim.Algorithm
	}{
		{"Cycle/n=1M", func() *graph.Graph { return gen.Cycle(1_000_000) }, core.PortOne{}},
		{"Torus/1000x1000", func() *graph.Graph { return gen.Torus(1000, 1000) }, core.PortOne{}},
		{"RandomRegular/n=1M,d=3", func() *graph.Graph {
			return gen.MustRandomRegular(rand.New(rand.NewSource(23)), 1_000_000, 3)
		}, core.RegularOdd{}},
	}
	for _, f := range million {
		b.Run("Million/"+f.name+"/sharded", func(b *testing.B) {
			if testing.Short() {
				b.Skip("million-node benchmark skipped in -short mode")
			}
			g := f.build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunSharded(g, f.alg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.N()), "nodes")
		})
	}
}

// BenchmarkExactSolvers tracks the branch-and-bound baselines used to
// compute the optima in the studies.
func BenchmarkExactSolvers(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := gen.RandomBoundedDegree(rng, 14, 4, 0.5)
	b.Run("MinimumMaximalMatching", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verify.MinimumMaximalMatching(g)
		}
	})
	b.Run("MinimumEDS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verify.MinimumEdgeDominatingSet(g)
		}
	})
}

// BenchmarkExtensions tracks the extension algorithms: the blossom
// maximum matching used as a polynomial lower-bound oracle and the
// Polishchuk–Suomela distributed vertex cover 3-approximation.
func BenchmarkExtensions(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	b.Run("BlossomMaximumMatching/n=500", func(b *testing.B) {
		g := gen.MustRandomRegular(rng, 500, 4)
		for i := 0; i < b.N; i++ {
			verify.MaximumMatching(g)
		}
	})
	b.Run("VertexCover3/n=256", func(b *testing.B) {
		g := gen.MustRandomRegular(rng, 256, 4)
		alg := core.VertexCover3{Delta: 4}
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := sim.RunSequential(g, alg)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkHarness regenerates the whole of Table 1 per iteration — the
// end-to-end cost of reproducing the paper's evaluation.
func BenchmarkHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table1(10, 9, 9)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Tight {
				b.Fatalf("row %s/%d not tight", r.Family, r.Param)
			}
		}
	}
}
