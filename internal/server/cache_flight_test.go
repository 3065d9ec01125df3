// Satellite coverage for the PR4 cache and flight machinery that the
// cluster tier now leans on: LRU safety under concurrent fills, the
// leader-private outcome for client cancellation (the 499 sibling of
// the timeout retry test), and the two-level cache-key probing order.
package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eds/internal/gen"
)

// TestResultCacheConcurrentFill hammers one LRU from many goroutines —
// concurrent peer fills and local runs insert into the same cache — and
// checks the two invariants that matter: size never exceeds capacity,
// and a surviving entry always carries the record it was inserted with.
// Run under -race in CI.
func TestResultCacheConcurrentFill(t *testing.T) {
	const (
		capacity = 8
		workers  = 16
		ops      = 400
		keySpace = 64
	)
	c := newResultCache(capacity)
	records := make([]*runRecord, keySpace)
	for k := range records {
		records[k] = &runRecord{line: []byte(fmt.Sprintf("record-%d\n", k))}
	}

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() { // samples the size invariant while the writers run
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := c.len(); n > capacity {
				t.Errorf("cache grew to %d entries, capacity is %d", n, capacity)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (w*ops + i*7) % keySpace
				key := fmt.Sprintf("key-%d", k)
				if rec, ok := c.get(key); ok && rec != records[k] {
					t.Errorf("key %s returned %q, want %q", key, rec.line, records[k].line)
					return
				}
				c.put(key, records[k])
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	watcher.Wait()

	if n := c.len(); n != capacity {
		t.Errorf("final size = %d, want the cache full at %d", n, capacity)
	}
}

// TestServerFollowerRetriesAfterLeaderCancel is the cancellation twin of
// TestServerFollowerRetriesAfterLeaderTimeout: the leader's client hangs
// up, its 499 outcome is private to it, and the follower retries the
// flight as the new leader rather than inheriting the cancellation.
func TestServerFollowerRetriesAfterLeaderCancel(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
		if err != nil {
			leaderDone <- err
			return
		}
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	<-started // the leader holds the flight, its engine run is gated

	var followerCode int
	var followerCache string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, ts.Client(), ts.URL, "?timeout=30s", body)
		followerCode = resp.StatusCode
		followerCache = resp.Header.Get("X-Cache")
	}()
	waitForMisses(t, s, 2)
	time.Sleep(20 * time.Millisecond) // let the follower park on the flight
	cancelLeader()

	// The follower must notice the leader's private outcome and start its
	// own engine run.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never retried after the leader's cancellation")
	}
	close(gate)
	wg.Wait()
	if err := <-leaderDone; err == nil {
		t.Error("leader request completed despite its context being canceled")
	}
	if followerCode != http.StatusOK {
		t.Errorf("follower status = %d, want 200", followerCode)
	}
	if followerCache != "miss" {
		t.Errorf("follower X-Cache = %q, want miss (it re-ran the engine itself)", followerCache)
	}
}

// TestTwoLevelKeyProbing pins the probing order of the two cache levels:
// a byte-identical replay is answered by the raw key without decoding,
// a cosmetic variant falls through to the canonical key and backfills
// its own raw key, and the backfill makes the next replay of the variant
// a raw hit too. Neither key names a response shape: a summary, an edge
// list and a stream of one body are one engine run and one record under
// two keys. Entry counts are the witness — every state transition has a
// distinct cache size.
func TestTwoLevelKeyProbing(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(12))
	variant := append([]byte("# cosmetic comment, same canonical graph\n"), body...)

	post := func(query string, b []byte) string {
		t.Helper()
		resp, out := postRun(t, ts.Client(), ts.URL, query, b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (body %s)", resp.StatusCode, out)
		}
		if want := uncachedBody(t, query, b); !bytes.Equal(out, want) {
			t.Errorf("%s: body differs from an uncached server's:\n%s\nvs\n%s", query, out, want)
		}
		return resp.Header.Get("X-Cache")
	}

	for i, q := range []string{"?alg=auto", "?alg=auto&edges=1", "?alg=auto&edges=1&stream=1"} {
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if c := post(q, body); c != want {
			t.Errorf("%s: X-Cache = %q, want %s", q, c, want)
		}
		if n := s.cache.len(); n != 2 {
			t.Fatalf("after %s: %d entries, want 2 (one record under its raw and canonical keys)", q, n)
		}
	}
	if runs := s.st.snapshot().runs; runs != 1 {
		t.Errorf("three shapes of one body cost %d engine runs, want 1", runs)
	}
	if c := post("?alg=auto", body); c != "hit" {
		t.Errorf("byte-identical replay: X-Cache = %q, want hit", c)
	}
	if n := s.cache.len(); n != 2 {
		t.Errorf("a raw-key hit must not add entries: %d, want 2", n)
	}
	if c := post("?alg=auto", variant); c != "hit" {
		t.Errorf("cosmetic variant: X-Cache = %q, want hit via the canonical key", c)
	}
	if n := s.cache.len(); n != 3 {
		t.Errorf("canonical hit must backfill the variant's raw key: %d entries, want 3", n)
	}
	if c := post("?alg=auto", variant); c != "hit" {
		t.Errorf("variant replay: X-Cache = %q, want hit", c)
	}
	if n := s.cache.len(); n != 3 {
		t.Errorf("variant replay must be a raw hit, not another backfill: %d entries, want 3", n)
	}
}
