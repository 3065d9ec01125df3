package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"time"

	"eds/internal/graph"
	"eds/internal/server"
	"eds/internal/sim"
	"eds/internal/spec"
	"eds/internal/verify"
)

// famLayer collects one family's sim-layer samples.
type famLayer struct {
	setupMs, roundsMs, outputsMs, nsPerPortRound, edgesetMs []float64
	allocs, rounds, messages                                []float64
	seqMs, shardMs                                          []float64
}

// layerStats replays inputs through each module's public entry points,
// one call at a time on an otherwise idle process, and collects the
// per-layer samples. Two in-process servers stand in for edsd: one with
// the cache off (every request a miss) and one with the default cache.
type layerStats struct {
	tr                               *tracer
	decodeMs, decodeAllocs, digestUs []float64
	decodeBytes                      int64
	decodeTime                       time.Duration
	fam                              map[string]*famLayer
	runMs, setupMs, roundsMs, outMs  []float64
	sharded, graphs                  int
	verifyMs                         []float64
	missMs, encodeMs, rawUs, canonUs []float64
	uncached, cached                 *server.Server
	nextOp                           int64
	speedups                         map[string]int // bodies per family timed sequential against sharded
}

// speedupBodies is how many bodies per family also time RunSequential
// against RunSharded at P = 2.
const speedupBodies = 6

func newLayerStats(tr *tracer) *layerStats {
	ls := &layerStats{
		tr:       tr,
		fam:      map[string]*famLayer{},
		speedups: map[string]int{},
		uncached: server.New(server.Config{CacheEntries: -1}),
		cached:   server.New(server.Config{}),
		nextOp:   1 << 32, // replay op ids stay apart from the live phase's
	}
	for _, f := range families {
		ls.fam[f] = &famLayer{}
	}
	return ls
}

// replay sends one wire body, asked for with the live request's query,
// through graph → sim → verify and through the in-process handler,
// recording a span per call. The sim and verify calls repeat reps times.
func (ls *layerStats) replay(body []byte, query, family string, reps int) error {
	tr, op := ls.tr, ls.nextOp
	ls.nextOp++
	root := tr.id()
	start := time.Now()
	fl := ls.fam[family]

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a := time.Now()
	g, err := graph.ReadGraphLimits(bytes.NewReader(body), graph.DefaultLimits)
	b := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	tr.add(tr.id(), root, op, "graph", "ReadGraphLimits", a, b)
	decode := b.Sub(a)
	ls.decodeMs = append(ls.decodeMs, durMs(int64(decode)))
	ls.decodeAllocs = append(ls.decodeAllocs, float64(m1.Mallocs-m0.Mallocs))
	ls.decodeBytes += int64(len(body))
	ls.decodeTime += decode

	a = time.Now()
	graph.Digest(g) // the first call also builds the routing view
	b = time.Now()
	tr.add(tr.id(), root, op, "graph", "Digest", a, b)
	digest := b.Sub(a)
	ls.digestUs = append(ls.digestUs, durUs(int64(digest)))

	q, err := url.ParseQuery(query)
	if err != nil {
		return fmt.Errorf("replay query: %w", err)
	}
	alg, _, err := spec.Algorithm(q.Get("alg"), g)
	if err != nil {
		return fmt.Errorf("replay algorithm: %w", err)
	}
	ls.graphs++
	if sim.EngineChoice(g.N(), g.NumPorts(), runtime.GOMAXPROCS(0)) == "sharded" {
		ls.sharded++
	}
	var run, edge, ver []float64
	for range reps {
		var tm sim.Timings
		runtime.ReadMemStats(&m0)
		a = time.Now()
		res, err := sim.RunAuto(g, alg, sim.WithTimings(&tm))
		b = time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("replay run: %w", err)
		}
		tr.add(tr.id(), root, op, "sim", "RunAuto", a, b)
		c := time.Now()
		d, err := sim.EdgeSet(g, res.Outputs)
		e := time.Now()
		if err != nil {
			return fmt.Errorf("replay edge set: %w", err)
		}
		tr.add(tr.id(), root, op, "sim", "EdgeSet", c, e)
		f := time.Now()
		ok := verify.IsEdgeDominatingSet(g, d)
		h := time.Now()
		tr.add(tr.id(), root, op, "verify", "IsEdgeDominatingSet", f, h)
		if !ok {
			return fmt.Errorf("replay: %s output is not an edge dominating set", alg.Name())
		}
		run = append(run, durMs(int64(b.Sub(a))))
		edge = append(edge, durMs(int64(e.Sub(c))))
		ver = append(ver, durMs(int64(h.Sub(f))))
		fl.setupMs = append(fl.setupMs, durMs(int64(tm.Setup)))
		fl.roundsMs = append(fl.roundsMs, durMs(int64(tm.Rounds)))
		fl.outputsMs = append(fl.outputsMs, durMs(int64(tm.Outputs)))
		if res.Rounds > 0 {
			fl.nsPerPortRound = append(fl.nsPerPortRound, float64(tm.Rounds)/float64(g.NumPorts()*res.Rounds))
		}
		fl.edgesetMs = append(fl.edgesetMs, edge[len(edge)-1])
		fl.allocs = append(fl.allocs, float64(m1.Mallocs-m0.Mallocs))
		fl.rounds = append(fl.rounds, float64(res.Rounds))
		fl.messages = append(fl.messages, float64(res.Messages))
		ls.runMs = append(ls.runMs, run[len(run)-1])
		ls.setupMs = append(ls.setupMs, durMs(int64(tm.Setup)))
		ls.roundsMs = append(ls.roundsMs, durMs(int64(tm.Rounds)))
		ls.outMs = append(ls.outMs, durMs(int64(tm.Outputs)))
		ls.verifyMs = append(ls.verifyMs, ver[len(ver)-1])
	}
	if ls.speedups[family] < speedupBodies {
		ls.speedups[family]++
		var seq, shard []float64
		for range reps {
			a = time.Now()
			_, err1 := sim.RunSequential(g, alg)
			b = time.Now()
			_, err2 := sim.RunSharded(g, alg, sim.WithShards(2))
			c := time.Now()
			if err := firstErr(err1, err2); err != nil {
				return fmt.Errorf("replay speedup run: %w", err)
			}
			tr.add(tr.id(), root, op, "sim", "RunSequential", a, b)
			tr.add(tr.id(), root, op, "sim", "RunSharded", b, c)
			seq = append(seq, durMs(int64(b.Sub(a))))
			shard = append(shard, durMs(int64(c.Sub(b))))
		}
		fl.seqMs = append(fl.seqMs, median(seq))
		fl.shardMs = append(fl.shardMs, median(shard))
	}

	miss, err := ls.serve(ls.uncached, query, body, "miss", root, op, "handler.miss")
	if err != nil {
		return err
	}
	ls.missMs = append(ls.missMs, durMs(int64(miss)))
	ls.encodeMs = append(ls.encodeMs, durMs(int64(miss-decode-digest))-median(run)-median(edge)-median(ver))
	// Streams bypass the cache, so the hit probes ask for the same
	// edges without streaming. Another wire form of the same graph may
	// have been replayed already, so priming may itself be a
	// (canonical) hit.
	hitQ := strings.Replace(query, "&stream=1", "", 1)
	if _, err := ls.serve(ls.cached, hitQ, body, "", root, op, "handler.prime"); err != nil {
		return err
	}
	raw, err := ls.serve(ls.cached, hitQ, body, "hit", root, op, "handler.raw_hit")
	if err != nil {
		return err
	}
	ls.rawUs = append(ls.rawUs, durUs(int64(raw)))
	other := append([]byte("# another wire form\n"), body...)
	canon, err := ls.serve(ls.cached, hitQ, other, "hit", root, op, "handler.canonical_hit")
	if err != nil {
		return err
	}
	ls.canonUs = append(ls.canonUs, durUs(int64(canon)))
	tr.add(root, 0, op, "bench", "replay", start, time.Now())
	return nil
}

// serve runs one request through an in-process handler and checks its
// status and, unless wantClass is empty, its X-Cache class.
func (ls *layerStats) serve(s *server.Server, query string, body []byte, wantClass string, parent, op int64, name string) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/run?"+query, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	a := time.Now()
	s.Handler().ServeHTTP(rec, req)
	b := time.Now()
	ls.tr.add(ls.tr.id(), parent, op, "server", name, a, b)
	class := rec.Header().Get("X-Cache")
	if class == "bypass" {
		class = "miss"
	}
	if rec.Code != http.StatusOK || (wantClass != "" && class != wantClass) {
		return 0, fmt.Errorf("in-process %s: status %d, X-Cache %q, want 200 %q", name, rec.Code, class, wantClass)
	}
	return b.Sub(a), nil
}

// inProcessStatsz reads the cached server's /statsz.
func (ls *layerStats) inProcessStatsz() (*statsz, error) {
	rec := httptest.NewRecorder()
	ls.cached.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var s statsz
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("in-process statsz: %w", err)
	}
	return &s, nil
}

// emit sets the graph, sim, verify and in-process server metrics.
func (ls *layerStats) emit(o *outcome) {
	o.set("graph.decode_ms", median(ls.decodeMs))
	o.set("graph.decode_mb_s", float64(ls.decodeBytes)/1e6/max(ls.decodeTime.Seconds(), 1e-9))
	o.set("graph.decode_allocs", median(ls.decodeAllocs))
	o.set("graph.digest_us", median(ls.digestUs))
	for _, f := range families {
		fl := ls.fam[f]
		o.set("sim.setup_ms."+f, median(fl.setupMs))
		o.set("sim.rounds_ms."+f, median(fl.roundsMs))
		o.set("sim.outputs_ms."+f, median(fl.outputsMs))
		o.set("sim.ns_per_port_round."+f, median(fl.nsPerPortRound))
		o.set("sim.edgeset_ms."+f, median(fl.edgesetMs))
		o.set("sim.allocs_per_run."+f, median(fl.allocs))
		o.set("sim.rounds."+f, median(fl.rounds))
		o.set("sim.messages."+f, median(fl.messages))
		speedup := 0.0
		if sh := median(fl.shardMs); sh > 0 {
			speedup = median(fl.seqMs) / sh
		}
		o.set("sim.sharded_speedup."+f, speedup)
	}
	o.set("sim.run_ms", median(ls.runMs))
	o.set("sim.setup_ms", median(ls.setupMs))
	o.set("sim.rounds_ms", median(ls.roundsMs))
	o.set("sim.outputs_ms", median(ls.outMs))
	o.set("sim.sharded_share", float64(ls.sharded)/float64(max(ls.graphs, 1)))
	o.set("verify.eds_ms", median(ls.verifyMs))
	o.set("server.miss_ms", median(ls.missMs))
	o.set("server.encode_ms", median(ls.encodeMs))
	o.set("server.raw_hit_us", median(ls.rawUs))
	o.set("server.canonical_hit_us", median(ls.canonUs))
	o.note("layers: replayed %d distinct bodies in-process", ls.graphs)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
