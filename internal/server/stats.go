package server

import (
	"fmt"
	"sync"

	"eds/internal/sim"
)

// histogram is a log-2 histogram: bucket k counts observations in
// [2^(k-1), 2^k) of the unit (bucket 0 is < 1), with the last bucket
// absorbing the overflow. The same machinery backs every distribution
// /statsz exposes — per-algorithm latencies (unit "ms", 16 buckets
// cover ~32 s, past any deadline the server grants), batch sizes (unit
// "", 16 buckets cover 32k-way coalescing), and streamed response sizes
// (unit "B", 28 buckets cover 128 MiB bodies).
type histogram struct {
	buckets []int64
	unit    string
	count   int64
	sum     int64
	max     int64
}

func newHistogram(nbuckets int, unit string) *histogram {
	return &histogram{buckets: make([]int64, nbuckets), unit: unit}
}

func (h *histogram) observe(v int64) {
	k := 0
	for x := v; x > 0 && k < len(h.buckets)-1; x >>= 1 {
		k++
	}
	h.buckets[k]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// histogramSnapshot is the JSON shape of one histogram in /statsz.
type histogramSnapshot struct {
	Count   int64            `json:"count"`
	Mean    float64          `json:"mean"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{Count: h.count, Max: h.max, Buckets: map[string]int64{}}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	for k, c := range h.buckets {
		if c == 0 {
			continue
		}
		label := "<1" + h.unit
		if k > 0 {
			label = fmt.Sprintf("<%d%s", 1<<k, h.unit)
		}
		if k == len(h.buckets)-1 {
			label = fmt.Sprintf(">=%d%s", 1<<(k-1), h.unit)
		}
		s.Buckets[label] = c
	}
	return s
}

// peerCounters tracks this replica's traffic with one peer, keyed by the
// peer's base URL. Sent/relayed/rejected/fallbacks count this replica
// acting as a non-owner (client of the fill protocol); served counts it
// acting as the owner for that peer.
type peerCounters struct {
	// FillsSent is the number of fill requests this replica addressed to
	// the peer (each with its own retry budget).
	FillsSent int64 `json:"fills_sent"`
	// FillsRelayed is how many of those produced an answer relayed to
	// the client — a verified record, or a deterministic error.
	FillsRelayed int64 `json:"fills_relayed"`
	// FillsRejected is how many of those answered a record that failed
	// verification against this replica's own decoding of the graph.
	FillsRejected int64 `json:"fills_rejected"`
	// Fallbacks is how many fills failed (peer unreachable, draining,
	// saturated, or its record rejected) and degraded to local compute.
	Fallbacks int64 `json:"fallbacks"`
	// FillsServed is the number of fill requests this replica answered
	// as the owner on the peer's behalf.
	FillsServed int64 `json:"fills_served"`
}

// stats aggregates the serving metrics exposed at /statsz. One mutex is
// plenty: every field is touched a handful of times per request, far
// off any hot path.
type stats struct {
	mu          sync.Mutex
	requests    int64
	byStatus    map[int]int64
	cacheHits   int64
	cacheMisses int64
	coalesced   int64
	perAlg      map[string]*histogram
	// phases accumulates the engines' setup/rounds/outputs wall-time
	// split (sim.WithTimings) over every completed run, exposing where
	// serving time actually goes: a setup-heavy mix means run construction
	// dominates and the arena/bulk path is the lever; a rounds-heavy mix
	// means the protocol itself does. runs doubles as the replica's
	// engine-run counter — the cluster e2e suite sums it across replicas
	// to prove a graph was computed exactly once fleet-wide.
	phases sim.Timings
	runs   int64
	// batchSizes distributes how many requests each engine run served
	// (leader + coalesced followers): the windowed batcher's yield.
	batchSizes *histogram
	// stream counts chunked NDJSON responses and their bytes; the
	// histogram shows the size distribution the buffered-JSON path never
	// has to hold in memory.
	streamResponses int64
	streamBytes     int64
	streamSizes     *histogram
	peers           map[string]*peerCounters
}

func newStats() *stats {
	return &stats{
		byStatus:    map[int]int64{},
		perAlg:      map[string]*histogram{},
		batchSizes:  newHistogram(16, ""),
		streamSizes: newHistogram(28, "B"),
		peers:       map[string]*peerCounters{},
	}
}

func (s *stats) recordStatus(code int) {
	s.mu.Lock()
	s.requests++
	s.byStatus[code]++
	s.mu.Unlock()
}

func (s *stats) recordCache(hit bool) {
	s.mu.Lock()
	if hit {
		s.cacheHits++
	} else {
		s.cacheMisses++
	}
	s.mu.Unlock()
}

// recordCoalesced counts a follower served from an identical in-flight
// run's shared outcome (the singleflight path).
func (s *stats) recordCoalesced() {
	s.mu.Lock()
	s.coalesced++
	s.mu.Unlock()
}

// recordRun accumulates one completed engine run from the run's own
// clock (sim.WithTimings): its phase split, and the split's total as a
// sample of alg's latency histogram.
func (s *stats) recordRun(alg string, split sim.Timings) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phases.Setup += split.Setup
	s.phases.Rounds += split.Rounds
	s.phases.Outputs += split.Outputs
	s.runs++
	h := s.perAlg[alg]
	if h == nil {
		h = newHistogram(16, "ms")
		s.perAlg[alg] = h
	}
	h.observe((split.Setup + split.Rounds + split.Outputs).Milliseconds())
}

// recordBatch notes that one engine run's outcome served size requests.
func (s *stats) recordBatch(size int64) {
	s.mu.Lock()
	s.batchSizes.observe(size)
	s.mu.Unlock()
}

// recordStream notes one finished NDJSON response of n body bytes.
func (s *stats) recordStream(n int64) {
	s.mu.Lock()
	s.streamResponses++
	s.streamBytes += n
	s.streamSizes.observe(n)
	s.mu.Unlock()
}

func (s *stats) peer(base string) *peerCounters {
	p := s.peers[base]
	if p == nil {
		p = &peerCounters{}
		s.peers[base] = p
	}
	return p
}

func (s *stats) recordFillSent(base string) {
	s.mu.Lock()
	s.peer(base).FillsSent++
	s.mu.Unlock()
}

func (s *stats) recordFillRelayed(base string) {
	s.mu.Lock()
	s.peer(base).FillsRelayed++
	s.mu.Unlock()
}

func (s *stats) recordFillRejected(base string) {
	s.mu.Lock()
	s.peer(base).FillsRejected++
	s.mu.Unlock()
}

func (s *stats) recordFallback(base string) {
	s.mu.Lock()
	s.peer(base).Fallbacks++
	s.mu.Unlock()
}

func (s *stats) recordFillServed(base string) {
	s.mu.Lock()
	s.peer(base).FillsServed++
	s.mu.Unlock()
}

// statsSnapshot is a consistent copy of every counter stats owns.
type statsSnapshot struct {
	requests        int64
	byStatus        map[string]int64
	hits, misses    int64
	coalesced       int64
	perAlg          map[string]histogramSnapshot
	phases          sim.Timings
	runs            int64
	batchSizes      histogramSnapshot
	streamResponses int64
	streamBytes     int64
	streamSizes     histogramSnapshot
	peers           map[string]peerCounters
}

func (s *stats) snapshot() statsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := statsSnapshot{
		requests:        s.requests,
		byStatus:        make(map[string]int64, len(s.byStatus)),
		hits:            s.cacheHits,
		misses:          s.cacheMisses,
		coalesced:       s.coalesced,
		perAlg:          make(map[string]histogramSnapshot, len(s.perAlg)),
		phases:          s.phases,
		runs:            s.runs,
		batchSizes:      s.batchSizes.snapshot(),
		streamResponses: s.streamResponses,
		streamBytes:     s.streamBytes,
		streamSizes:     s.streamSizes.snapshot(),
		peers:           make(map[string]peerCounters, len(s.peers)),
	}
	for code, c := range s.byStatus {
		snap.byStatus[fmt.Sprintf("%d", code)] = c
	}
	for alg, h := range s.perAlg {
		snap.perAlg[alg] = h.snapshot()
	}
	for base, p := range s.peers {
		snap.peers[base] = *p
	}
	return snap
}
