package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// httpClients is the closed loop's client count: at most nproc = 2
// callers, each waiting for its reply, so at most 2 requests in flight.
const httpClients = 2

// replayCap bounds how many distinct bodies a traced run replays
// in-process, evenly spaced over the run, to keep traced runs short.
const replayCap = 300

// httpOp is one request a client sends.
type httpOp struct {
	replica int    // index of the daemon it goes to
	query   string // POST /v1/run?<query>
	body    []byte
	family  string
	shape   int
	bodyID  int // equal bodies, byte for byte
	graphID int // equal graphs, in any wire form
	sharded bool
	// ref is the graph's reference outcome; a relabelled body names its
	// nodes through permutation(permSeed, permN) (permN 0: not relabelled).
	ref      *reference
	permSeed int64
	permN    int
}

// check checks a 200 body for op against its reference.
func (op *httpOp) check(body []byte) error {
	var inv []int32
	if op.permN > 0 {
		inv = inverse(permutation(op.permSeed, op.permN))
	}
	return op.ref.checkBody(body, op.shape, inv)
}

// httpSample is what a client saw for one op.
type httpSample struct {
	op        *httpOp
	start     time.Time
	lat       time.Duration
	status    int
	class     string // X-Cache, with "bypass" (streams) as "stream"
	fillCache string // X-Fill-Cache on fills: the owner's class
	owner     string // X-Eds-Owner on fills
	respLen   int
	body      []byte // kept only where checks need it after the phase
	err       error
}

func (s *httpSample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// solved reports whether an engine run was on the request's critical
// path: a miss or a stream.
func (s *httpSample) solved() bool {
	return s.class == "miss" || s.class == "stream"
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
}

// closedLoop runs the clients until next reports no more ops or until
// passes. With keepBodies every 200 body is kept for checks after the
// phase. With a tracer, each op gets a root span and a span for the
// HTTP exchange, and carries its op id as X-Request-ID.
type closedLoop struct {
	bases      []string // daemon base URLs, by httpOp.replica
	next       func(client int) (*httpOp, bool)
	until      time.Time
	keepBodies bool
	tr         *tracer
	ops        atomic.Int64
	seed       int64
}

func (cl *closedLoop) run(ctx context.Context) ([]*httpSample, time.Duration) {
	per := make([][]*httpSample, httpClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range httpClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newHTTPClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for {
				if !cl.until.IsZero() && !time.Now().Before(cl.until) {
					return
				}
				rootStart := time.Now()
				op, ok := cl.next(c)
				if !ok {
					return
				}
				s := cl.do(ctx, client, op, &buf, rootStart)
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []*httpSample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Add(all[i].lat).Before(all[j].start.Add(all[j].lat)) })
	return all, wall
}

func (cl *closedLoop) do(ctx context.Context, client *http.Client, op *httpOp, buf *bytes.Buffer, rootStart time.Time) *httpSample {
	s := &httpSample{op: op}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.bases[op.replica]+"/v1/run?"+op.query, bytes.NewReader(op.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "text/plain")
	var opID, root int64
	if cl.tr != nil {
		opID, root = cl.ops.Add(1), cl.tr.id()
		req.Header.Set("X-Request-ID", fmt.Sprintf("perfbench-%d-%d", cl.seed, opID))
	}
	buf.Reset()
	s.start = time.Now()
	resp, err := client.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	s.lat = end.Sub(s.start)
	if err != nil {
		s.err = err
		return s
	}
	s.status = resp.StatusCode
	s.class = resp.Header.Get("X-Cache")
	if s.class == "bypass" {
		s.class = "stream"
	}
	s.fillCache = resp.Header.Get("X-Fill-Cache")
	s.owner = resp.Header.Get("X-Eds-Owner")
	s.respLen = buf.Len()
	if s.status == http.StatusOK && cl.keepBodies {
		s.body = bytes.Clone(buf.Bytes())
	}
	if cl.tr != nil {
		layer := "edsd"
		if s.class == "fill" {
			layer = "cluster"
		}
		cl.tr.add(cl.tr.id(), root, opID, layer, "POST /v1/run "+s.class, s.start, end)
		cl.tr.add(root, 0, opID, "bench", "request", rootStart, time.Now())
	}
	return s
}

// httpPhase is one measured phase against a running fleet.
type httpPhase struct {
	samples       []*httpSample // in completion order
	start         time.Time
	slices        []slice
	wall          time.Duration
	selfCPU       time.Duration
	before, after *statsz
	hwmMiB        float64
}

func measurePhase(ctx context.Context, fleet []*daemon, cl *closedLoop) (*httpPhase, error) {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	p := &httpPhase{}
	// Collect the set-up's garbage now, not during the phase, where the
	// benchmark's own collector would compete with edsd for the CPUs.
	runtime.GC()
	var err error
	if p.before, err = fleetStatsz(ctx, c, fleet); err != nil {
		return nil, err
	}
	self0 := selfCPU()
	smp := startSampler(func() float64 {
		ms, _ := fleetCPUMs(fleet) // a daemon that died fails the run's requests anyway
		return ms
	})
	p.samples, p.wall = cl.run(ctx)
	p.slices = smp.stop()
	p.start = smp.start
	p.selfCPU = selfCPU() - self0
	if p.after, err = fleetStatsz(ctx, c, fleet); err != nil {
		return nil, err
	}
	if p.hwmMiB, err = fleetHWMMiB(fleet); err != nil {
		return nil, err
	}
	return p, nil
}

// count tallies the phase's ops into the outcome once their checks are
// done; a failed check has already set the sample's err.
func (p *httpPhase) count(o *outcome) {
	for _, s := range p.samples {
		o.attempted++
		if s.ok() {
			continue
		}
		o.failed++
		if s.err != nil {
			o.problem("request ?%s: %v", s.op.query, s.err)
		} else {
			o.problem("request ?%s: status %d", s.op.query, s.status)
		}
	}
}

// quiet picks the phase's least-stolen seconds, keeping at least half of
// them and at least 1000 successful requests, and returns those seconds,
// their successful requests in completion order, and each kept second's
// count of them.
func (p *httpPhase) quiet() (kept []int, samples []*httpSample, perSecond []float64) {
	in := make([]int, len(p.samples))
	okPer := make([]int, len(p.slices))
	for i, s := range p.samples {
		in[i] = sliceOf(p.start, p.slices, s.start.Add(s.lat))
		if in[i] >= 0 && s.ok() {
			okPer[in[i]]++
		}
	}
	steal := make([]float64, len(p.slices))
	for i, sl := range p.slices {
		steal[i] = sl.steal
	}
	kept = quietest(steal, okPer, 1000)
	keep := make([]bool, len(p.slices))
	for _, k := range kept {
		keep[k] = true
		perSecond = append(perSecond, float64(okPer[k]))
	}
	for i, s := range p.samples {
		if in[i] >= 0 && keep[in[i]] && s.ok() {
			samples = append(samples, s)
		}
	}
	return kept, samples, perSecond
}

// throughput is the median count of successful requests per kept
// second.
func (p *httpPhase) throughput() float64 {
	_, _, perSecond := p.quiet()
	return median(perSecond)
}

// emitEndToEnd sets the end-to-end metrics of an HTTP workload from its
// least-stolen seconds.
func (p *httpPhase) emitEndToEnd(o *outcome) {
	p.count(o)
	kept, samples, perSecond := p.quiet()
	var lat []float64
	byFam := map[string][]float64{}
	for _, s := range samples {
		ms := durMs(int64(s.lat))
		lat = append(lat, ms)
		if s.solved() {
			byFam[s.op.family] = append(byFam[s.op.family], ms)
		}
	}
	cpuMs, keptSteal, allSteal := 0.0, 0.0, 0.0
	for _, k := range kept {
		cpuMs += p.slices[k].cpuMs
		keptSteal += p.slices[k].steal / float64(len(kept))
	}
	for _, sl := range p.slices {
		allSteal += sl.steal / float64(len(p.slices))
	}
	o.set("throughput_ops_s", median(perSecond))
	// Latencies in completion order, summarised per block of
	// consecutive requests and then medianed over the blocks; every p99
	// block has at least 1000 requests, so ten lie beyond its p99.
	o.set("latency_p50_ms", blockPercentile(lat, 50, 100))
	o.set("latency_p99_ms", blockPercentile(lat, 99, 1000))
	for _, f := range families {
		o.set("solve_ms."+f, blockPercentile(byFam[f], 50, 100))
		o.note("solve_ms.%s: %d solved requests", f, len(byFam[f]))
	}
	o.set("cpu_ms_per_op", cpuMs/max(sum(perSecond), 1))
	o.set("peak_rss_mb", p.hwmMiB)
	o.note("kept the %d least-stolen of %d seconds: %d of %d requests, host steal %.4f kept, %.4f overall",
		len(kept), len(p.slices), len(samples), len(p.samples), keptSteal, allSteal)
	o.note("requests per kept second: %v", perSecond)
	var steals, cpus []string
	for _, sl := range p.slices {
		steals = append(steals, fmt.Sprintf("%.3f", sl.steal))
		cpus = append(cpus, fmt.Sprintf("%.0f", sl.cpuMs))
	}
	o.note("steal per second: %s", strings.Join(steals, " "))
	o.note("system-under-test CPU ms per second: %s", strings.Join(cpus, " "))
	o.note("latency: %d samples in %d blocks for p99, %d beyond each block's p99 (ten needed)",
		len(lat), max(len(lat)/1000, 1), samplesBeyond(len(lat)/max(len(lat)/1000, 1), 99))
}

// classLatency groups the successful requests' latencies by X-Cache
// class.
func (p *httpPhase) classLatency() map[string][]float64 {
	m := map[string][]float64{}
	for _, s := range p.samples {
		if s.ok() {
			m[s.class] = append(m[s.class], durMs(int64(s.lat)))
		}
	}
	return m
}

// emitLayers sets the edsd metrics of a traced HTTP phase and the
// /statsz deltas across it.
func (p *httpPhase) emitLayers(o *outcome, ls *layerStats) {
	lat := p.classLatency()
	n := float64(max(len(p.samples), 1))
	var req, resp float64
	for _, s := range p.samples {
		req += float64(len(s.op.body))
		resp += float64(s.respLen)
	}
	for _, c := range xcacheClasses {
		o.set("edsd.latency_p50_ms."+c, median(lat[c]))
		o.set("edsd.share."+c, float64(len(lat[c]))/n)
	}
	o.set("edsd.transport_ms.miss", transport(lat["miss"], median(ls.missMs)))
	o.set("edsd.req_kb", req/n/1024)
	o.set("edsd.resp_kb", resp/n/1024)
	o.set("edsd.client_cpu_share", p.selfCPU.Seconds()/(p.wall.Seconds()*float64(runtime.NumCPU())))
	emitStatszLayer(o, p.after, p.before, len(p.samples))
}

// emitFills sets the cluster metrics seen by clients: the share of
// requests a fill answered, the share of fills the owner answered from
// its cache, and the latency of those (the fill hop itself).
func emitFills(o *outcome, samples []*httpSample) {
	fills, ownerHits := 0, 0
	var hop []float64
	for _, s := range samples {
		if s.ok() && s.class == "fill" {
			fills++
			if s.fillCache == "hit" {
				ownerHits++
				hop = append(hop, durMs(int64(s.lat)))
			}
		}
	}
	o.set("cluster.fill_share", float64(fills)/float64(max(len(samples), 1)))
	o.set("cluster.fill_owner_hit_share", float64(ownerHits)/float64(max(fills, 1)))
	o.set("cluster.fill_hit_ms", median(hop))
}

// transport is the client-side latency of a class beyond the
// in-process handler time for it: loopback transport, body transfer and
// queueing. An empty class reads 0.
func transport(client []float64, handlerMs float64) float64 {
	if len(client) == 0 {
		return 0
	}
	return median(client) - handlerMs
}

// emitStatszLayer sets the server counters from /statsz deltas between
// before and after.
func emitStatszLayer(o *outcome, after, before *statsz, requests int) {
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	runs := after.EngineTime.Runs - before.EngineTime.Runs
	engineMs := (after.EngineTime.SetupMs + after.EngineTime.RoundsMs + after.EngineTime.OutputsMs) -
		(before.EngineTime.SetupMs + before.EngineTime.RoundsMs + before.EngineTime.OutputsMs)
	o.set("server.hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	o.set("server.runs_per_request", float64(runs)/float64(max(requests, 1)))
	o.set("server.cache_entries", float64(after.Cache.Size))
	o.set("server.engine_ms_per_run", engineMs/float64(max(runs, 1)))
}

// emitNoFleet sets the edsd and fleet metrics of a workload that runs
// no edsd: there is no request of any class, so each reads 0.
func emitNoFleet(o *outcome) {
	for _, c := range xcacheClasses {
		o.set("edsd.latency_p50_ms."+c, 0)
		o.set("edsd.share."+c, 0)
	}
	for _, name := range []string{"edsd.transport_ms.miss", "edsd.req_kb", "edsd.resp_kb", "edsd.client_cpu_share",
		"cluster.fill_share", "cluster.fill_owner_hit_share", "cluster.fallbacks", "cluster.fill_hit_ms"} {
		o.set(name, 0)
	}
}

// emitSelfShares sets each layer's share of the traced run's self time.
func emitSelfShares(o *outcome, spans []span) {
	self := selfTimes(spans)
	var total int64
	for _, v := range self {
		total += v
	}
	parts := []string{}
	for _, l := range traceLayers {
		o.set("trace.self_share."+l, float64(self[l])/float64(max(total, 1)))
		parts = append(parts, fmt.Sprintf("%s=%.1fms", l, durMs(self[l])))
	}
	o.note("self time per layer over %d spans: %s", len(spans), strings.Join(parts, " "))
}

// reportMix notes the workload's properties over the measured phase:
// byte-identical repeats, known graphs in new bytes, never-seen graphs
// (against everything sent before, warm-up included), response shapes,
// the share EngineChoice sends to the sharded engine, and the X-Cache
// class mix.
func reportMix(o *outcome, warm []*httpOp, samples []*httpSample) {
	bodies, graphs := map[int]bool{}, map[int]bool{}
	for _, op := range warm {
		bodies[op.bodyID], graphs[op.graphID] = true, true
	}
	kinds, shapes, classes := map[string]int{}, map[string]int{}, map[string]int{}
	sharded := 0
	for _, s := range samples {
		switch {
		case bodies[s.op.bodyID]:
			kinds["repeat"]++
		case graphs[s.op.graphID]:
			kinds["new_bytes"]++
		default:
			kinds["unseen"]++
		}
		bodies[s.op.bodyID], graphs[s.op.graphID] = true, true
		shapes[shapeNames[s.op.shape]]++
		classes[s.class]++
		if s.op.sharded {
			sharded++
		}
	}
	o.note("inputs: %s", shares(kinds))
	o.note("shapes: %s", shares(shapes))
	o.note("sharded engine share: %.4f", float64(sharded)/float64(max(len(samples), 1)))
	o.note("X-Cache classes: %s", shares(classes))
}

// evenPick chooses at most k of n items, evenly spaced.
func evenPick(n, k int) []int {
	k = min(n, k)
	out := make([]int, k)
	for i := range k {
		out[i] = i * n / k
	}
	return out
}

// clusterProbeBodies is how many of a run's bodies the cluster probe
// sends through a fleet of probeReplicas edsd processes.
const (
	clusterProbeBodies = 60
	probeReplicas      = 3
)

// clusterProbe measures the fill hop for a workload whose own traffic
// never crosses it, on a 3-replica fleet started for the purpose. Each
// body goes to replica 0 (its owner computes it, through a fill unless
// replica 0 owns it), then twice to a replica that is neither replica 0
// nor the owner: a fill the owner answers from its cache, then a local
// hit. The three answers must be byte-identical, which is the cache's
// replay contract. The cluster metrics are taken over these requests.
func clusterProbe(ctx context.Context, cfg *config, o *outcome, ops []*httpOp, tr *tracer) error {
	fleet, err := startFleet(ctx, cfg, probeReplicas, false)
	if err != nil {
		return err
	}
	defer stopFleet(fleet)
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	before, err := fleetStatsz(ctx, c, fleet)
	if err != nil {
		return err
	}
	cl := &closedLoop{bases: baseURLs(fleet), tr: tr, seed: cfg.seed}
	cl.ops.Store(1 << 40) // probe op ids stay apart from the other phases'
	var buf bytes.Buffer
	var samples []*httpSample
	for _, op := range ops {
		var firstBody []byte
		send := func(replica int) *httpSample {
			to := *op
			to.replica = replica
			s := cl.do(ctx, c, &to, &buf, time.Now())
			switch {
			case !s.ok():
			case firstBody != nil:
				if !bytes.Equal(buf.Bytes(), firstBody) {
					s.err = fmt.Errorf("output check: %s body differs from the first answer for the same graph and shape", s.class)
				}
			default:
				if err := op.check(buf.Bytes()); err != nil {
					s.err = fmt.Errorf("output check: %w", err)
				}
				firstBody = bytes.Clone(buf.Bytes())
			}
			samples = append(samples, s)
			return s
		}
		first := send(0)
		owner := first.owner
		if first.class != "fill" {
			owner = fleet[0].base
		}
		other := -1
		for r, d := range fleet {
			if r != 0 && d.base != owner {
				other = r
				break
			}
		}
		send(other)
		send(other)
	}
	after, err := fleetStatsz(ctx, c, fleet)
	if err != nil {
		return err
	}
	for _, s := range samples {
		o.attempted++
		if !s.ok() {
			o.failed++
			o.problem("cluster probe request ?%s: status %d, %v", s.op.query, s.status, s.err)
		}
	}
	emitFills(o, samples)
	fallbacks := after.fallbacks() - before.fallbacks()
	if fallbacks != 0 {
		o.problem("self-check: the cluster probe had %d fill fallbacks; it measures the fill hop only with 0", fallbacks)
	}
	o.set("cluster.fallbacks", float64(fallbacks))
	o.note("cluster probe: %d requests through a %d-replica fleet", len(samples), len(fleet))
	return nil
}
