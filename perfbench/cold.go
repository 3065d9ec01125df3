package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"eds/internal/graph"
	"eds/internal/spec"
)

// serve-cold inputs: every request is a graph the daemon has never seen,
// a base graph under a fresh random node relabelling.
const (
	coldBasesPerKind = 20
	coldWarmup       = 48
	// coldPoolPerSecond sizes the pool: about three times the 104
	// requests per second one edsd sustained on a 2-CPU host (2.3 times
	// its fastest second), so a change up to twice as fast still sends
	// only never-seen graphs for the whole measured phase. A pool that
	// runs out fails the run's self-check.
	coldPoolPerSecond = 300
	// coldPoolMax caps the pool's memory: bodies average about 120 KiB,
	// so the cap is about 1.2 GiB.
	coldPoolMax = 10_000
)

// coldKinds: 3-regular graphs (RegularOdd), 4-regular graphs with at
// least 16384 ports (PortOne, on the sharded engine), and trees
// (General(Δ) for the tree's own Δ).
var coldKinds = []graphKind{
	{gen: "regular3", family: famRegular3, lo: 2000, hi: 6000},
	{gen: "regular4", family: famTorus, lo: 4100, hi: 8000},
	{gen: "tree", family: famTree, lo: 800, hi: 1600, degLo: 6, degHi: 7},
}

type coldBase struct {
	kind graphKind
	g    *graph.Graph
	ref  *reference
}

// coldEntry is one request: a relabelled base graph in one shape.
type coldEntry struct {
	base     int
	permSeed int64
	shape    int
	body     []byte
}

// coldInputs draws the base graphs, computes their references, and
// encodes n request bodies, each a base graph under its own relabelling.
func coldInputs(seed int64, kinds []graphKind, perKind, n int) ([]*coldBase, []*coldEntry, error) {
	rng := subRand(seed, "serve-cold/bases")
	var bases []*coldBase
	for _, k := range kinds {
		for i := range perKind {
			g, err := k.drawAt(rng, i, perKind)
			if err != nil {
				return nil, nil, err
			}
			alg, _, err := spec.Algorithm("auto", g)
			if err != nil {
				return nil, nil, err
			}
			ref, err := newReference(g, alg)
			if err != nil {
				return nil, nil, err
			}
			bases = append(bases, &coldBase{kind: k, g: g, ref: ref})
		}
	}
	pick := subRand(seed, "serve-cold/requests")
	baseOf := stratified(pick, n, len(bases))
	shapes := coldShapes(pick, n)
	entries := make([]*coldEntry, n)
	for i := range entries {
		entries[i] = &coldEntry{base: baseOf[i], permSeed: pick.Int63(), shape: shapes[i]}
	}
	// Each body depends on its own entry alone, so two encoders split them.
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(entries); i += 2 {
				e := entries[i]
				g := bases[e.base].g
				e.body = appendWire(make([]byte, 0, wireCap(g)), g, permutation(e.permSeed, g.N()))
			}
		}()
	}
	wg.Wait()
	return bases, entries, nil
}

func runServeCold(cfg *config) (*outcome, error) {
	o := newOutcome()
	// The pool is most of the heap and lives for the whole run; collecting
	// at 10% growth keeps the process near the pool's size, not twice it.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	bases, entries, err := coldInputs(cfg.seed, coldKinds, coldBasesPerKind, coldWarmup+min(coldPoolPerSecond*cfg.seconds, coldPoolMax))
	if err != nil {
		return nil, err
	}
	ops := make([]*httpOp, len(entries))
	for i, e := range entries {
		b := bases[e.base]
		ops[i] = &httpOp{
			query: shapeQuery(e.shape), body: e.body, family: b.kind.family, shape: e.shape,
			bodyID: i, graphID: i, sharded: b.ref.sharded,
			ref: b.ref, permSeed: e.permSeed, permN: b.g.N(),
		}
	}
	warm, pool := ops[:coldWarmup], ops[coldWarmup:]
	ctx := context.Background()

	var fleet []*daemon
	defer func() { stopFleet(fleet) }()
	// bringUp starts one daemon and warms it up; its time is one set-up.
	bringUp := func(logs bool) (float64, error) {
		stopFleet(fleet)
		t0 := time.Now()
		if fleet, err = startFleet(ctx, cfg, 1, logs); err != nil {
			return 0, err
		}
		if err := warmUp(ctx, fleet, split(warm)); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
	var setups []float64
	for range setupReps {
		s, err := bringUp(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	o.set("setup_s", median(setups))
	o.note("setup_s samples: %v", setups)

	phase, err := coldPhase(ctx, cfg, o, fleet, pool, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		phase.emitEndToEnd(o)
		reportMix(o, warm, phase.samples)
		return o, nil
	}
	phase.count(o)

	// The traced run repeats the phase on a fresh daemon with the same
	// inputs, so both phases see only never-seen graphs.
	if _, err := bringUp(true); err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := coldPhase(ctx, cfg, o, fleet, pool, tr)
	if err != nil {
		return nil, err
	}
	stopFleet(fleet)
	fleet = nil
	traced.count(o)
	reportMix(o, warm, traced.samples)
	o.set("trace.overhead", 1-traced.throughput()/phase.throughput())
	o.note("tracing: untraced %.4f ops/s, traced %.4f ops/s", phase.throughput(), traced.throughput())

	ls := newLayerStats(tr)
	for _, i := range evenPick(len(traced.samples), replayCap) {
		op := traced.samples[i].op
		if err := ls.replay(op.body, op.query, op.family, 1); err != nil {
			return nil, err
		}
	}
	ls.emit(o)
	traced.emitLayers(o, ls)
	var probe []*httpOp
	for _, i := range evenPick(len(traced.samples), clusterProbeBodies) {
		if op := traced.samples[i].op; op.shape != shapeStream {
			probe = append(probe, op)
		}
	}
	if err := clusterProbe(ctx, cfg, o, probe, tr); err != nil {
		return nil, err
	}
	o.spans = tr.snapshot()
	emitSelfShares(o, o.spans)
	return o, nil
}

// coldPhase runs the measured phase: client c sends pool entries c, c+2,
// c+4, ... so the two never send the same graph. Every body is checked
// after the phase.
func coldPhase(ctx context.Context, cfg *config, o *outcome, fleet []*daemon, pool []*httpOp, tr *tracer) (*httpPhase, error) {
	var exhausted atomic.Bool
	parts := split(pool)
	cl := &closedLoop{
		bases:      baseURLs(fleet),
		next:       nextFrom(parts, &exhausted),
		until:      time.Now().Add(cfg.measure()),
		keepBodies: true,
		tr:         tr,
		seed:       cfg.seed,
	}
	p, err := measurePhase(ctx, fleet, cl)
	if err != nil {
		return nil, err
	}
	if exhausted.Load() {
		o.problem("self-check: the pool of %d never-seen graphs ran out before the phase ended", len(pool))
	}
	for _, s := range p.samples {
		if s.ok() {
			if err := s.op.check(s.body); err != nil {
				s.err = fmt.Errorf("output check: %w", err)
			}
		}
		s.body = nil
	}
	if hits := p.after.Cache.Hits - p.before.Cache.Hits; hits != 0 {
		o.problem("self-check: serve-cold had %d cache hits; its definition needs hit ratio 0", hits)
	}
	return p, nil
}

// split deals ops to the clients round-robin.
func split(ops []*httpOp) [][]*httpOp {
	parts := make([][]*httpOp, httpClients)
	for i, op := range ops {
		parts[i%httpClients] = append(parts[i%httpClients], op)
	}
	return parts
}

// nextFrom hands client c its own list in order, flagging exhaustion.
func nextFrom(parts [][]*httpOp, exhausted *atomic.Bool) func(int) (*httpOp, bool) {
	idx := make([]int, len(parts))
	return func(c int) (*httpOp, bool) {
		if idx[c] >= len(parts[c]) {
			if exhausted != nil {
				exhausted.Store(true)
			}
			return nil, false
		}
		op := parts[c][idx[c]]
		idx[c]++
		return op, true
	}
}

func baseURLs(fleet []*daemon) []string {
	out := make([]string, len(fleet))
	for i, d := range fleet {
		out[i] = d.base
	}
	return out
}

// warmUp sends each client's list once and fails on any non-200.
func warmUp(ctx context.Context, fleet []*daemon, parts [][]*httpOp) error {
	cl := &closedLoop{bases: baseURLs(fleet), next: nextFrom(parts, nil)}
	samples, _ := cl.run(ctx)
	for _, s := range samples {
		if !s.ok() {
			return fmt.Errorf("warm-up request ?%s failed: status %d, %v", s.op.query, s.status, s.err)
		}
	}
	return nil
}
