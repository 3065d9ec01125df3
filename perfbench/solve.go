package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"eds"
	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

// solve-large sizes. One graph per family is alive at a time: with two
// per family the retained heap made the torus timings swing by a sixth.
const (
	solveRegularN  = 200_000
	solveTorusSide = 700
	solveTreeN     = 30_000
	// solveTreeDelta is General's fixed Δ for the tree family; trees of
	// larger maximum degree are redrawn, so the 2Δ²-round schedule does
	// not move with the seed.
	solveTreeDelta = 9
	// setupReps is how many times a run sets up from cold; setup_s is
	// their median.
	setupReps = 3
)

type solveFamily struct {
	name  string
	alg   eds.Algorithm
	query string // the same solve through the in-process handler
	make  func() (*graph.Graph, error)
	g     *graph.Graph
	ref   *reference
}

func solveFamilies(seed int64) []*solveFamily {
	return []*solveFamily{
		{name: famRegular3, alg: eds.RegularOdd(), query: "alg=auto", make: func() (*graph.Graph, error) {
			return gen.RandomRegular(subRand(seed, "solve-large/regular3"), solveRegularN, 3)
		}},
		{name: famTorus, alg: eds.PortOne(), query: "alg=auto", make: func() (*graph.Graph, error) {
			return gen.Torus(solveTorusSide, solveTorusSide), nil
		}},
		{name: famTree, alg: eds.General(solveTreeDelta), query: fmt.Sprintf("alg=general:%d", solveTreeDelta), make: func() (*graph.Graph, error) {
			return boundedTree(subRand(seed, "solve-large/tree"), solveTreeN, 2, solveTreeDelta), nil
		}},
	}
}

// runSolveLarge measures eds.RunAuto on one large graph per kernel, in
// process, one caller. Set-up is the first (cold) solve of each graph,
// repeated from fresh graphs and emptied engine pools.
func runSolveLarge(cfg *config) (*outcome, error) {
	o := newOutcome()
	fams := solveFamilies(cfg.seed)
	var setups []float64
	for rep := range setupReps {
		for _, f := range fams {
			f.g = nil
		}
		// Two collections empty the engines' sync.Pools, so every
		// repetition starts as cold as the first.
		runtime.GC()
		runtime.GC()
		total := 0.0
		for _, f := range fams {
			g, err := f.make()
			if err != nil {
				return nil, fmt.Errorf("generating %s: %w", f.name, err)
			}
			f.g = g
			t0 := time.Now()
			d, res, err := eds.RunAuto(g, f.alg)
			total += time.Since(t0).Seconds()
			if err != nil {
				return nil, fmt.Errorf("cold solve of %s: %w", f.name, err)
			}
			if rep == 0 {
				if f.ref, err = newReference(g, f.alg); err != nil {
					return nil, err
				}
				if !f.ref.sharded {
					o.problem("self-check: %s (%d ports) is not on the sharded engine at GOMAXPROCS=2", f.name, f.ref.ports)
				}
			}
			if err := f.ref.checkSolve(d, res); err != nil {
				o.problem("cold solve: %v", err)
			}
		}
		setups = append(setups, total)
	}
	o.set("setup_s", median(setups))
	for _, f := range fams {
		o.note("%s: n=%d m=%d ports=%d alg=%s rounds=%d messages=%d |D|=%d engine=%s",
			f.name, f.ref.n, f.ref.m, f.ref.ports, f.ref.alg, f.ref.rounds, f.ref.messages, f.ref.count,
			sim.EngineChoice(f.ref.n, f.ref.ports, runtime.GOMAXPROCS(0)))
	}
	o.note("setup_s samples: %v", setups)

	rssReset := resetPeakRSS() == nil
	live := solveLoop(o, fams, cfg.measure(), nil)
	if !cfg.trace {
		hwm, err := procHWMMiB("self")
		if err != nil {
			return nil, err
		}
		if !rssReset {
			o.note("peak_rss_mb includes input generation: VmHWM could not be reset")
		}
		live.emit(o, fams)
		o.set("peak_rss_mb", hwm)
		return o, nil
	}

	tr := newTracer()
	traced := solveLoop(o, fams, cfg.measure(), tr)
	o.set("trace.overhead", 1-traced.throughput()/live.throughput())
	o.note("tracing: untraced %.4f ops/s, traced %.4f ops/s", live.throughput(), traced.throughput())

	ls := newLayerStats(tr)
	for _, f := range fams {
		body := appendWire(nil, f.g, nil)
		f.g = nil
		runtime.GC()
		if err := ls.replay(body, f.query, f.name, 3); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	ls.emit(o)
	s, err := ls.inProcessStatsz()
	if err != nil {
		return nil, err
	}
	emitStatszLayer(o, s, &statsz{}, ls.graphs*3)
	emitNoFleet(o)
	o.spans = tr.snapshot()
	emitSelfShares(o, o.spans)
	return o, nil
}

// solveLive is one measured phase of solve-large.
type solveLive struct {
	ops    []solveOp
	cycles []solveCycle
}

// solveOp is one checked solve; ms includes gcMs, the collection of its
// garbage, and steal is the host's CPU steal share while it ran.
type solveOp struct {
	family string
	ms     float64
	gcMs   float64
	cpu    time.Duration
	steal  float64
	ok     bool
}

// solveCycle is one round-robin pass over the families: its solves,
// their wall time with their collections, and their mean steal.
type solveCycle struct {
	solves int
	wall   time.Duration
	steal  float64
}

// throughput is the solves per second of the least-stolen half of the
// round-robin cycles, over their wall time without the benchmark's own
// output checks.
func (l *solveLive) throughput() float64 {
	steal := make([]float64, len(l.cycles))
	for i, c := range l.cycles {
		steal[i] = c.steal
	}
	solves, wall := 0, time.Duration(0)
	for _, i := range quietest(steal, make([]int, len(steal)), 0) {
		solves += l.cycles[i].solves
		wall += l.cycles[i].wall
	}
	return float64(solves) / max(wall.Seconds(), 1e-9)
}

// solveLoop solves the families round-robin until d has passed, checking
// each result against the reference outside the timed interval. The
// collector is off during the loop; instead each solve's garbage is
// collected once its result is checked, and that collection is charged
// to the solve's time and CPU, as any caller pays for it. Left to run on
// its own with half a gigabyte of graphs live, a collection cycle landed
// in whichever solve chance picked and added a third to a half to it.
// Traced, it calls the two sim entry points eds.RunAuto is made of, with
// a span each.
func solveLoop(o *outcome, fams []*solveFamily, d time.Duration, tr *tracer) *solveLive {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	l := &solveLive{}
	end := time.Now().Add(d)
	var cycle solveCycle
	for i := 0; time.Now().Before(end); i++ {
		f := fams[i%len(fams)]
		if i%len(fams) == 0 {
			cycle = solveCycle{}
		}
		var (
			dset *graph.EdgeSet
			res  *sim.Result
			err  error
		)
		c0, h0 := selfCPU(), hostCPU()
		t0 := time.Now()
		if tr == nil {
			dset, res, err = eds.RunAuto(f.g, f.alg)
		} else {
			op, root := int64(i+1), tr.id()
			res, err = sim.RunAuto(f.g, f.alg)
			t1 := time.Now()
			tr.add(tr.id(), root, op, "sim", "RunAuto", t0, t1)
			if err == nil {
				dset, err = sim.EdgeSet(f.g, res.Outputs)
				tr.add(tr.id(), root, op, "sim", "EdgeSet", t1, time.Now())
			}
			tr.add(root, 0, op, "bench", "solve."+f.name, t0, time.Now())
		}
		solved, solvedCPU := time.Now(), selfCPU()
		o.attempted++
		if err == nil {
			err = f.ref.checkSolve(dset, res)
		}
		if err != nil {
			o.failed++
			o.problem("solve %s: %v", f.name, err)
		}
		// The check is the benchmark's own work and stays out of the
		// solve's time; the collection of everything the solve allocated,
		// its result included, is charged to it.
		g0, gc0 := time.Now(), selfCPU()
		runtime.GC()
		gc := time.Since(g0)
		el := solved.Sub(t0) + gc
		op := solveOp{family: f.name, ms: durMs(int64(el)), gcMs: durMs(int64(gc)),
			cpu: solvedCPU - c0 + selfCPU() - gc0, steal: hostCPU().stealSince(h0)}
		cycle.solves++
		cycle.wall += el
		cycle.steal += op.steal / float64(len(fams))
		op.ok = err == nil
		l.ops = append(l.ops, op)
		if i%len(fams) == len(fams)-1 {
			l.cycles = append(l.cycles, cycle)
		}
	}
	return l
}

// emit sets the end-to-end metrics from each family's least-stolen half
// of its successful solves.
func (l *solveLive) emit(o *outcome, fams []*solveFamily) {
	var lat []float64
	var cpu time.Duration
	keptSteal, allSteal, all := 0.0, 0.0, 0
	for _, f := range fams {
		var ops []solveOp
		var steal []float64
		for _, op := range l.ops {
			if op.ok && op.family == f.name {
				ops = append(ops, op)
				steal = append(steal, op.steal)
				allSteal += op.steal
			}
		}
		all += len(ops)
		kept := quietest(steal, make([]int, len(ops)), 0)
		var ms, gcMs []float64
		for _, k := range kept {
			ms = append(ms, ops[k].ms)
			gcMs = append(gcMs, ops[k].gcMs)
			cpu += ops[k].cpu
			keptSteal += ops[k].steal
		}
		lat = append(lat, ms...)
		o.set("solve_ms."+f.name, median(ms))
		o.note("%s solve times (ms) kept: %.1f; median collection %.1f ms of them", f.name, ms, median(gcMs))
	}
	o.set("throughput_ops_s", l.throughput())
	// A run solves a few dozen large graphs, far from the 1000 samples a
	// p99 needs: the tail reported is the highest one the sample
	// supports, the eleventh slowest solve kept.
	o.set("latency_p50_ms", percentile(lat, 50))
	o.set("latency_p99_ms", supportedTail(lat))
	o.set("cpu_ms_per_op", durMs(int64(cpu))/float64(max(len(lat), 1)))
	o.note("kept the %d least-stolen of %d solves, host steal %.4f kept, %.4f overall; %d cycles",
		len(lat), all, keptSteal/float64(max(len(lat), 1)), allSteal/float64(max(all, 1)), len(l.cycles))
	o.note("latency_p99_ms is the eleventh slowest of %d kept solves, about p%.0f",
		len(lat), 100*float64(max(len(lat)-10, 0))/float64(max(len(lat), 1)))
}
