// End-to-end suite for the edsd serving layer, driven through a real
// HTTP stack (httptest): request decoding, engine execution, cache
// behaviour, admission control, deadlines, and graceful drain. Most
// tests use the real engines; the saturation and drain tests substitute
// a gated runner so the timing is deterministic.
//
// The file lives in package server (not server_test) so it can reach the
// runEngine seam and the internal queue/semaphore lengths.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

// graphBytes serialises g in the codec wire format.
func graphBytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteTo(&buf, g); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func postRun(t testing.TB, client *http.Client, url, query string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/run"+query, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, out
}

// uncachedBody is what a fresh server with its cache off answers for
// query and body: the reference that a cached, coalesced or shared
// answer must match byte for byte.
func uncachedBody(t *testing.T, query string, body []byte) []byte {
	t.Helper()
	ts := httptest.NewServer(New(Config{CacheEntries: -1}).Handler())
	defer ts.Close()
	resp, out := postRun(t, ts.Client(), ts.URL, query, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncached %s: status %d (body %s)", query, resp.StatusCode, out)
	}
	return out
}

func decodeRun(t testing.TB, body []byte) RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return rr
}

func TestServerHappyPath(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := gen.Cycle(12)
	resp, body := postRun(t, ts.Client(), ts.URL, "?alg=auto&edges=1", graphBytes(t, g))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	rr := decodeRun(t, body)
	if rr.Algorithm != "portone" { // cycle is 2-regular → auto resolves to portone
		t.Errorf("algorithm = %q, want portone", rr.Algorithm)
	}
	if rr.N != 12 || rr.M != 12 {
		t.Errorf("got n=%d m=%d, want 12/12", rr.N, rr.M)
	}
	if rr.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (PortOne is a one-round algorithm)", rr.Rounds)
	}
	if !rr.Dominating {
		t.Error("output is not an edge dominating set")
	}
	if len(rr.EdgeList) != rr.Edges {
		t.Errorf("edge_list has %d entries, edges says %d", len(rr.EdgeList), rr.Edges)
	}
	if rr.Bound == "" {
		t.Error("bound missing for a regular graph")
	}

	// edsd always runs sim.RunAuto, so engine and shards are ignored
	// like any other unrecognised parameter: the same record answers.
	resp, body2 := postRun(t, ts.Client(), ts.URL, "?alg=auto&engine=quantum&shards=many&edges=1", graphBytes(t, g))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(body2, body) {
		t.Errorf("engine and shards not ignored: status %d, X-Cache %q, body %s", resp.StatusCode, resp.Header.Get("X-Cache"), body2)
	}
}

func TestServerCacheHitReturnsIdenticalBytes(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := gen.Hypercube(4)
	first, body1 := postRun(t, ts.Client(), ts.URL, "?alg=auto", graphBytes(t, g))
	if first.StatusCode != http.StatusOK || first.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", first.StatusCode, first.Header.Get("X-Cache"))
	}
	second, body2 := postRun(t, ts.Client(), ts.URL, "?alg=auto", graphBytes(t, g))
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", second.StatusCode)
	}
	if second.Header.Get("X-Cache") != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", second.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cache hit returned different bytes:\n%s\nvs\n%s", body1, body2)
	}

	// The cache keys on the canonical graph + resolved algorithm, so a
	// cosmetically different wire form (comments, blank lines) of the
	// same graph and the resolved algorithm name both hit.
	cosmetic := append([]byte("# same graph, different bytes\n\n"), graphBytes(t, g)...)
	third, body3 := postRun(t, ts.Client(), ts.URL, "?alg=portone", cosmetic)
	if third.StatusCode != http.StatusOK || third.Header.Get("X-Cache") != "hit" {
		t.Errorf("cosmetic variant: status %d, X-Cache %q, want hit", third.StatusCode, third.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body1, body3) {
		t.Error("cosmetic variant returned different bytes")
	}

	// A different algorithm on the same graph must miss.
	fourth, _ := postRun(t, ts.Client(), ts.URL, "?alg=alledges", graphBytes(t, g))
	if fourth.Header.Get("X-Cache") != "miss" {
		t.Errorf("different algorithm X-Cache = %q, want miss", fourth.Header.Get("X-Cache"))
	}
}

// TestServerBoundIndependentOfSpelling pins that a cached answer does
// not depend on which spelling of the algorithm arrived first. On a
// graph of maximum degree 1, auto, general and alledges all resolve to
// alledges; served in either order and in every shape, each answer is
// byte-identical to an uncached server's.
func TestServerBoundIndependentOfSpelling(t *testing.T) {
	body := graphBytes(t, gen.PerfectMatching(4))
	spellings := []string{"auto", "general", "alledges"}
	for _, shape := range []string{"", "&edges=1", "&edges=1&stream=1"} {
		want := map[string][]byte{}
		for _, alg := range spellings {
			want[alg] = uncachedBody(t, "?alg="+alg+shape, body)
		}
		for _, first := range spellings {
			for _, second := range spellings {
				if first == second {
					continue
				}
				ts := httptest.NewServer(New(Config{}).Handler())
				for _, alg := range []string{first, second} {
					resp, got := postRun(t, ts.Client(), ts.URL, "?alg="+alg+shape, body)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s%s: status %d (body %s)", alg, shape, resp.StatusCode, got)
					}
					if !bytes.Equal(got, want[alg]) {
						t.Errorf("%s%s after %s (X-Cache %s): got %s, want %s",
							alg, shape, first, resp.Header.Get("X-Cache"), got, want[alg])
					}
				}
				ts.Close()
			}
		}
	}
}

// TestServerPortOneOnEdgelessGraph: PortOne on a graph without edges
// is answered like any run, with D = ∅ and Table 1's bound 1, and
// /statsz counts it.
func TestServerPortOneOnEdgelessGraph(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, body := postRun(t, ts.Client(), ts.URL, "?alg=portone&edges=1", []byte("nodes 3\n"))
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"bound":"1"`)) {
		t.Fatalf("status %d, body %s; want 200 with \"bound\":\"1\"", resp.StatusCode, body)
	}
	if rr := decodeRun(t, body); rr.Algorithm != "portone" || rr.Edges != 0 || !rr.Dominating {
		t.Errorf("got %+v, want portone with no edges, dominating", rr)
	}
	sresp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statszResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.ByStatus["200"] != 1 {
		t.Errorf("by_status = %v, want one 200", st.Requests.ByStatus)
	}
}

func TestServerBadRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cycle := graphBytes(t, gen.Cycle(6))
	tests := []struct {
		name  string
		query string
		body  string
		want  int
	}{
		{"malformed graph", "", "nodes zz\n", http.StatusBadRequest},
		{"conn before nodes", "", "conn 0 1 1 1\n", http.StatusBadRequest},
		{"empty body", "", "", http.StatusBadRequest},
		{"unknown algorithm", "?alg=zigzag", string(cycle), http.StatusBadRequest},
		{"bad timeout", "?timeout=soon", string(cycle), http.StatusBadRequest},
		{"negative timeout", "?timeout=-5s", string(cycle), http.StatusBadRequest},
		{"alg incompatible with graph", "?alg=regularodd", string(cycle), http.StatusBadRequest},
		{"idmatching over a self-loop", "?alg=idmatching", "nodes 1\nconn 0 1 0 2\n", http.StatusBadRequest},
		{"idmatching over crossed parallel edges", "?alg=idmatching", "nodes 2\nconn 0 1 1 2\nconn 0 2 1 1\n", http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRun(t, ts.Client(), ts.URL, tc.query, []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Errorf("error body %q is not a JSON error", body)
			}
		})
	}

	t.Run("GET not allowed", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/v1/run")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status = %d, want 405", resp.StatusCode)
		}
	})
}

func TestServerOversized(t *testing.T) {
	s := New(Config{
		MaxBodyBytes: 512,
		Limits:       graph.Limits{MaxNodes: 100, MaxPorts: 400},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Run("body over the byte cap", func(t *testing.T) {
		big := strings.Repeat("# padding\n", 200)
		resp, _ := postRun(t, ts.Client(), ts.URL, "", []byte(big))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("graph over the node cap", func(t *testing.T) {
		resp, body := postRun(t, ts.Client(), ts.URL, "", []byte("nodes 101\n"))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("status = %d, want 413 (body %s)", resp.StatusCode, body)
		}
	})
	t.Run("graph within caps is served", func(t *testing.T) {
		resp, body := postRun(t, ts.Client(), ts.URL, "", graphBytes(t, gen.Cycle(20)))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status = %d (body %s)", resp.StatusCode, body)
		}
	})
}

// gateServer returns a server whose runs block until the returned gate
// is closed, plus a channel that receives one value per run started.
func gateServer(cfg Config) (*Server, chan struct{}, chan struct{}) {
	s := New(cfg)
	gate := make(chan struct{})
	started := make(chan struct{}, 64)
	s.runEngine = func(ctx context.Context, g *graph.Graph, a sim.Algorithm) (*sim.Result, sim.Timings, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return defaultRunEngine(ctx, g, a)
		case <-ctx.Done():
			// Produce the exact error a real engine would.
			res, err := sim.RunSequential(g, a, sim.WithContext(ctx))
			return res, sim.Timings{}, err
		}
	}
	return s, gate, started
}

func TestServerSaturationReturns429(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Three distinct graphs: identical bodies would coalesce onto one
	// flight instead of saturating the pool (see TestServerCoalescing).
	bodies := [][]byte{
		graphBytes(t, gen.Cycle(8)),
		graphBytes(t, gen.Cycle(10)),
		graphBytes(t, gen.Cycle(12)),
	}

	results := make(chan int, 2)
	// First request occupies the single worker...
	go func() {
		resp, _ := postRun(t, ts.Client(), ts.URL, "", bodies[0])
		results <- resp.StatusCode
	}()
	<-started
	// ...second request fills the queue...
	go func() {
		resp, _ := postRun(t, ts.Client(), ts.URL, "", bodies[1])
		results <- resp.StatusCode
	}()
	waitFor(t, func() bool { return len(s.queue) == 1 })

	// ...so the third is rejected immediately with 429.
	start := time.Now()
	resp, respBody := postRun(t, ts.Client(), ts.URL, "", bodies[2])
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, respBody)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("saturated request took %v; 429 must be immediate", d)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted request %d finished with %d, want 200", i, code)
		}
	}
}

func TestServerTimeoutReturns504(t *testing.T) {
	t.Run("expired before the engine starts", func(t *testing.T) {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, body := postRun(t, ts.Client(), ts.URL, "?timeout=1ns", graphBytes(t, gen.Cycle(12)))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
		}
	})
	t.Run("expired mid-run", func(t *testing.T) {
		s, _, started := gateServer(Config{}) // gate never closes: the run hangs until its deadline
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		start := time.Now()
		resp, body := postRun(t, ts.Client(), ts.URL, "?timeout=50ms", graphBytes(t, gen.Cycle(12)))
		<-started
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("timed-out request took %v, deadline was 50ms", d)
		}
	})
	t.Run("expired while queued", func(t *testing.T) {
		s, gate, started := gateServer(Config{Workers: 1, QueueDepth: 4, CacheEntries: -1})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body := graphBytes(t, gen.Cycle(8))
		done := make(chan int, 1)
		go func() {
			resp, _ := postRun(t, ts.Client(), ts.URL, "", body)
			done <- resp.StatusCode
		}()
		<-started
		// This request waits in the queue and its deadline passes there.
		resp, respBody := postRun(t, ts.Client(), ts.URL, "?timeout=30ms", body)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, respBody)
		}
		close(gate)
		if code := <-done; code != http.StatusOK {
			t.Errorf("first request finished with %d", code)
		}
	})
}

func TestServerGracefulDrain(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 2, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz is green before the drain.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v / %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	inFlight := make(chan int, 1)
	go func() {
		resp, _ := postRun(t, ts.Client(), ts.URL, "", graphBytes(t, gen.Cycle(10)))
		inFlight <- resp.StatusCode
	}()
	<-started

	s.StartDraining()

	// New work is refused and health flips, telling balancers to leave.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", resp.StatusCode)
	}
	refused, _ := postRun(t, ts.Client(), ts.URL, "", graphBytes(t, gen.Cycle(10)))
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new run during drain = %d, want 503", refused.StatusCode)
	}

	// The in-flight run is not abandoned: it completes with 200.
	close(gate)
	if code := <-inFlight; code != http.StatusOK {
		t.Errorf("in-flight run finished with %d during drain, want 200", code)
	}
}

func TestServerStatsz(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := graphBytes(t, gen.Torus(4, 4))
	postRun(t, ts.Client(), ts.URL, "", body) // miss
	postRun(t, ts.Client(), ts.URL, "", body) // hit
	postRun(t, ts.Client(), ts.URL, "", []byte("bogus\n"))

	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding statsz: %v", err)
	}
	if st.Requests.Total != 3 {
		t.Errorf("requests.total = %d, want 3", st.Requests.Total)
	}
	if st.Requests.ByStatus["200"] != 2 || st.Requests.ByStatus["400"] != 1 {
		t.Errorf("by_status = %v", st.Requests.ByStatus)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.HitRate != 0.5 {
		t.Errorf("hit_rate = %v, want 0.5", st.Cache.HitRate)
	}
	// One served result occupies two entries: the raw-body key and the
	// canonical-structure key.
	if st.Cache.Size != 2 {
		t.Errorf("cache size = %d, want 2", st.Cache.Size)
	}
	// The torus is 4-regular → portone; its histogram must have the run.
	h, ok := st.LatencyMs["portone"]
	if !ok || h.Count != 1 {
		t.Errorf("latency histogram missing the portone run: %+v", st.LatencyMs)
	}
	if st.Draining {
		t.Error("draining reported before drain")
	}
	// The engine-time split covers exactly the executed (non-cached,
	// non-bogus) run. Sub-millisecond runs can legitimately report 0 ms,
	// so only the run count and non-negativity are pinned here.
	if st.EngineTime.Runs != 1 {
		t.Errorf("engine_time.runs = %d, want 1", st.EngineTime.Runs)
	}
	if st.EngineTime.SetupMs < 0 || st.EngineTime.RoundsMs < 0 || st.EngineTime.OutputsMs < 0 {
		t.Errorf("negative engine_time split: %+v", st.EngineTime)
	}
}

// TestServerPprofGating pins the profiling endpoints' default-off
// posture: /debug/pprof/ must 404 unless Config.EnablePprof (edsd's
// -pprof flag) opted in — the handlers expose heap contents and let any
// client start CPU profiles.
func TestServerPprofGating(t *testing.T) {
	t.Run("off by default", func(t *testing.T) {
		ts := httptest.NewServer(New(Config{}).Handler())
		defer ts.Close()
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s = %d without EnablePprof, want 404", path, resp.StatusCode)
			}
		}
	})
	t.Run("mounted when enabled", func(t *testing.T) {
		ts := httptest.NewServer(New(Config{EnablePprof: true}).Handler())
		defer ts.Close()
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/goroutine"} {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s = %d with EnablePprof, want 200", path, resp.StatusCode)
			}
		}
		// The serving API is unaffected by the extra mounts.
		resp, body := postRun(t, ts.Client(), ts.URL, "", graphBytes(t, gen.Cycle(8)))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST /v1/run with pprof enabled = %d (body %s)", resp.StatusCode, body)
		}
	})
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	a, b, cc := &runRecord{}, &runRecord{}, &runRecord{}
	c.put("a", a)
	c.put("b", b)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", cc) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || v != a {
		t.Error("a lost")
	}
	if v, ok := c.get("c"); !ok || v != cc {
		t.Error("c lost")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLoadSmoke is the acceptance load test: >= 64 concurrent requests
// against the daemon on a RandomRegular n=10k graph must complete with a
// bounded goroutine count, at least one cache hit, zero dropped
// responses, and every cancelled request back within its deadline. Run
// under -race in CI.
func TestLoadSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := gen.RandomRegular(rng, 10_000, 3)
	if err != nil {
		t.Fatalf("RandomRegular: %v", err)
	}
	body := graphBytes(t, g)

	s := New(Config{QueueDepth: 128, MaxTimeout: 10 * time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		clients  = 64 // concurrent clients, each issuing two requests
		canceled = 8  // of which this many use an immediate deadline
	)
	baseGoroutines := numGoroutinesStable()

	type outcome struct {
		status   int
		elapsed  time.Duration
		canceled bool
		dropped  bool
	}
	results := make(chan outcome, 2*clients)
	for i := 0; i < clients; i++ {
		wantCancel := i < canceled
		go func(wantCancel bool) {
			for wave := 0; wave < 2; wave++ {
				// The deadline clock starts before admission, and under
				// -race the whole first wave queues behind a handful of
				// workers, so successful requests need a deadline that
				// covers the queueing, not just their own run.
				query := "?timeout=5m"
				if wantCancel {
					// alg=general resolves to general(Δ=3), not auto's
					// regularodd, so these have a cache key of their own;
					// they must never be answered from the record the
					// successful requests cached (a hit ignores the
					// deadline), or the 504 assertion is moot.
					query = "?timeout=1ns&alg=general"
				}
				start := time.Now()
				resp, err := ts.Client().Post(ts.URL+"/v1/run"+query, "text/plain", bytes.NewReader(body))
				if err != nil {
					results <- outcome{dropped: true}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				results <- outcome{status: resp.StatusCode, elapsed: time.Since(start), canceled: wantCancel}
			}
		}(wantCancel)
	}

	statusCount := map[int]int{}
	for i := 0; i < 2*clients; i++ {
		o := <-results
		if o.dropped {
			t.Fatal("a request was dropped without a response")
		}
		statusCount[o.status]++
		if o.canceled {
			if o.status != http.StatusGatewayTimeout {
				t.Errorf("canceled request got %d, want 504", o.status)
			}
			// The server answers an expired request without queueing it,
			// so its latency must stay far below the tens of seconds a
			// full queue drain takes. The bound is loose because on a
			// small -race box the client goroutine itself is starved by
			// the engine runs; TestServerTimeoutReturns504 asserts tight
			// promptness on an unloaded server.
			if o.elapsed > 30*time.Second {
				t.Errorf("canceled request took %v; it must not wait behind the queue", o.elapsed)
			}
		} else if o.status != http.StatusOK {
			t.Errorf("request got %d, want 200", o.status)
		}
	}
	wantOK := 2 * (clients - canceled)
	if statusCount[http.StatusOK] != wantOK || statusCount[http.StatusGatewayTimeout] != 2*canceled {
		t.Errorf("status counts = %v, want %d OK and %d 504", statusCount, wantOK, 2*canceled)
	}

	// The second wave of each client runs after its first completed, so
	// the cache must have served at least one hit.
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Cache.Hits < 1 {
		t.Errorf("cache hits = %d, want >= 1", st.Cache.Hits)
	}
	if st.Queue.Depth != 0 || st.Queue.InFlight != 0 {
		t.Errorf("queue not drained: depth=%d in_flight=%d", st.Queue.Depth, st.Queue.InFlight)
	}

	// Goroutine count must return to (near) the pre-load baseline: no
	// engine worker, queue waiter, or handler may leak. Idle HTTP
	// keep-alive connections are the only tolerated slack.
	after := numGoroutinesStable()
	if after > baseGoroutines+2*clients {
		t.Errorf("goroutines grew from %d to %d; leak suspected", baseGoroutines, after)
	}
}

func numGoroutinesStable() int {
	// Let short-lived goroutines (closed connections, finished shards)
	// retire before counting.
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}
