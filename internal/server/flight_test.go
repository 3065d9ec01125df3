// Singleflight suite: identical in-flight /v1/run requests must share
// one engine run (and its worker slot), deterministic failures must be
// shared with followers, and a leader whose outcome was private to its
// own budget (cancellation, deadline) must not poison the followers —
// they retry and take the lead themselves.
//
// Lives in package server for the same reason as server_test.go: the
// tests reach the runEngine seam and the stats internals.
package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

// waitForMisses blocks until n requests have passed the cache probe
// (each records exactly one miss before joining the flight group).
func waitForMisses(t *testing.T, s *Server, n int64) {
	t.Helper()
	waitFor(t, func() bool { return s.st.snapshot().misses >= n })
}

func TestServerCoalescing(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	const followers = 3
	type outcome struct {
		code  int
		cache string
	}
	results := make(chan outcome, 1+followers)
	post := func() {
		resp, _ := postRun(t, ts.Client(), ts.URL, "", body)
		results <- outcome{resp.StatusCode, resp.Header.Get("X-Cache")}
	}

	go post()
	<-started // the leader's engine run is in flight
	for i := 0; i < followers; i++ {
		go post()
	}
	// Every duplicate has passed its cache probe; give them a moment to
	// park on the flight before releasing the leader.
	waitForMisses(t, s, 1+followers)
	time.Sleep(50 * time.Millisecond)
	close(gate)

	var misses, coalesced int
	for i := 0; i < 1+followers; i++ {
		o := <-results
		if o.code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, o.code)
		}
		switch o.cache {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("request %d: X-Cache = %q", i, o.cache)
		}
	}
	if misses != 1 || coalesced != followers {
		t.Errorf("got %d misses and %d coalesced, want 1 and %d", misses, coalesced, followers)
	}
	if extra := len(started); extra != 0 {
		t.Errorf("%d extra engine runs started; duplicates must share the leader's run", extra)
	}
	coalescedStat := s.st.snapshot().coalesced
	if coalescedStat != int64(followers) {
		t.Errorf("statsz coalesced = %d, want %d", coalescedStat, followers)
	}
}

func TestServerCoalescingSharesDeterministicError(t *testing.T) {
	s := New(Config{Workers: 4, CacheEntries: -1})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.runEngine = func(ctx context.Context, g *graph.Graph, a sim.Algorithm) (*sim.Result, sim.Timings, error) {
		started <- struct{}{}
		<-gate
		return nil, sim.Timings{}, errors.New("deterministic failure for this graph")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	type outcome struct {
		code int
		body string
	}
	results := make(chan outcome, 2)
	post := func() {
		resp, b := postRun(t, ts.Client(), ts.URL, "", body)
		results <- outcome{resp.StatusCode, string(b)}
	}
	go post()
	<-started
	go post()
	waitForMisses(t, s, 2)
	time.Sleep(50 * time.Millisecond)
	close(gate)

	first, second := <-results, <-results
	for i, o := range []outcome{first, second} {
		if o.code != http.StatusInternalServerError {
			t.Errorf("request %d: status %d, want 500", i, o.code)
		}
	}
	if first.body != second.body {
		t.Errorf("leader and follower error bodies differ:\n%s\n%s", first.body, second.body)
	}
	if extra := len(started); extra != 0 {
		t.Errorf("%d extra engine runs started for a shared deterministic failure", extra)
	}
}

func TestServerFollowerRetriesAfterLeaderTimeout(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	var wg sync.WaitGroup
	wg.Add(2)
	var leaderCode, followerCode int
	var followerCache string
	// The leader's budget is far shorter than the follower's: its 504 is
	// private and must not be served to the follower.
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, ts.Client(), ts.URL, "?timeout=100ms", body)
		leaderCode = resp.StatusCode
	}()
	<-started
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, ts.Client(), ts.URL, "?timeout=30s", body)
		followerCode = resp.StatusCode
		followerCache = resp.Header.Get("X-Cache")
	}()
	// The follower retries after the leader's deadline and becomes the
	// new leader: a second engine run starts.
	<-started
	close(gate)
	wg.Wait()

	if leaderCode != http.StatusGatewayTimeout {
		t.Errorf("leader status = %d, want 504", leaderCode)
	}
	if followerCode != http.StatusOK {
		t.Errorf("follower status = %d, want 200", followerCode)
	}
	if followerCache != "miss" {
		t.Errorf("follower X-Cache = %q, want miss (it re-ran the engine itself)", followerCache)
	}
}

func TestServerFollowerHonoursOwnDeadline(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	done := make(chan struct{})
	go func() { // leader hangs on the gate until teardown
		postRun(t, ts.Client(), ts.URL, "?timeout=30s", body)
		close(done)
	}()
	<-started
	resp, respBody := postRun(t, ts.Client(), ts.URL, "?timeout=100ms", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("follower status = %d, want 504 (body %s)", resp.StatusCode, respBody)
	}
	close(gate) // release the leader so ts.Close does not wait out its deadline
	<-done
}

// served is one response as a client saw it.
type served struct {
	code  int
	cache string
	body  []byte
}

// flightSize is the size of the one flight in progress, or 0 when none
// is.
func flightSize(s *Server) int64 {
	s.flights.mu.Lock()
	defer s.flights.mu.Unlock()
	for _, f := range s.flights.m {
		return f.size.Load()
	}
	return 0
}

// TestServerSharedRunAcrossShapes pins that a run depends only on the
// graph and the algorithm: a summary, an edge-list and a stream request
// for one graph, in flight together, share one engine run, and each
// answers byte for byte what an uncached server answers for its shape.
func TestServerSharedRunAcrossShapes(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	shapes := []struct{ query, cache string }{
		{"?alg=auto", "miss"},
		{"?alg=auto&edges=1", "coalesced"},
		{"?alg=auto&edges=1&stream=1", "coalesced"},
	}
	results := make([]served, len(shapes))
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postRun(t, ts.Client(), ts.URL, shapes[i].query, body)
			results[i] = served{resp.StatusCode, resp.Header.Get("X-Cache"), out}
		}()
	}
	post(0)
	<-started // the summary request leads; its engine run is in flight
	post(1)
	post(2)
	// An extra engine run ends the wait too, so a shape that missed the
	// flight fails below instead of timing out here.
	waitFor(t, func() bool { return flightSize(s) == 3 || len(started) > 0 })
	close(gate)
	wg.Wait()

	if extra := len(started); extra != 0 {
		t.Errorf("%d extra engine runs started; every shape must share the leader's run", extra)
	}
	for i, sh := range shapes {
		got := results[i]
		if got.code != http.StatusOK || got.cache != sh.cache {
			t.Errorf("%s: status %d, X-Cache %q; want 200 %q", sh.query, got.code, got.cache, sh.cache)
		}
		if want := uncachedBody(t, sh.query, body); !bytes.Equal(got.body, want) {
			t.Errorf("%s: shared-run body differs from an uncached server's:\n%s\nvs\n%s", sh.query, got.body, want)
		}
	}
}

// TestServerStreamFollowerRetriesAfterLeaderTimeout: a stream joins a
// buffered request's flight, and the leader's deadline expires. The 504
// is the leader's alone, so the stream retries, leads a run of its own
// and streams it.
func TestServerStreamFollowerRetriesAfterLeaderTimeout(t *testing.T) {
	s := New(Config{Workers: 4, CacheEntries: -1})
	joined := make(chan struct{})
	var runs atomic.Int32
	s.runEngine = func(ctx context.Context, g *graph.Graph, a sim.Algorithm) (*sim.Result, sim.Timings, error) {
		if runs.Add(1) == 1 {
			// The leader holds its flight until the stream has joined
			// it, then runs out its deadline.
			select {
			case <-joined:
			case <-time.After(5 * time.Second):
			}
			<-ctx.Done()
		}
		return defaultRunEngine(ctx, g, a)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))
	const streamQuery = "?edges=1&stream=1&timeout=30s"

	leader := make(chan int, 1)
	go func() {
		resp, _ := postRun(t, ts.Client(), ts.URL, "?timeout=100ms", body)
		leader <- resp.StatusCode
	}()
	waitFor(t, func() bool { return flightSize(s) == 1 })
	follower := make(chan served, 1)
	go func() {
		resp, out := postRun(t, ts.Client(), ts.URL, streamQuery, body)
		follower <- served{resp.StatusCode, resp.Header.Get("X-Cache"), out}
	}()
	waitFor(t, func() bool { return flightSize(s) == 2 })
	close(joined)

	if code := <-leader; code != http.StatusGatewayTimeout {
		t.Errorf("leader status = %d, want 504", code)
	}
	got := <-follower
	if got.code != http.StatusOK || got.cache != "miss" {
		t.Errorf("stream follower: status %d, X-Cache %q; want 200 miss", got.code, got.cache)
	}
	if want := uncachedBody(t, streamQuery, body); !bytes.Equal(got.body, want) {
		t.Errorf("stream follower's body differs from an uncached server's:\n%s\nvs\n%s", got.body, want)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("engine runs = %d, want 2 (the stream leads its own run after the leader's 504)", n)
	}
}
