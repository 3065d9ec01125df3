// Gated benchmarks for the request batcher: the flight-group
// bookkeeping that every /v1/run crosses, and a whole batched run
// through the handler stack. Their allocs/op live in
// BENCH_baseline.json and are enforced by cmd/edsbench in CI — the
// batcher must not quietly start allocating per follower.
package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eds/internal/gen"
)

// BenchmarkFlightJoinFinish is the batcher's bookkeeping in isolation:
// one leader and seven followers joining one flight, the leader
// finishing, every follower reading the shared outcome. Joins are
// serialized so the measurement is deterministic — the per-op
// allocations are the flight struct, its done channel, and the map
// slot, all independent of the batch size.
func BenchmarkFlightJoinFinish(b *testing.B) {
	fg := newFlightGroup()
	const followers = 7
	out := flightResult{code: http.StatusOK, rec: &runRecord{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, leader := fg.join("bench-key")
		if !leader {
			b.Fatal("stale flight left behind by a previous iteration")
		}
		flights := make([]*flight, followers)
		for j := range flights {
			ff, lead := fg.join("bench-key")
			if lead {
				b.Fatal("follower became leader while the flight was live")
			}
			flights[j] = ff
		}
		fg.finish("bench-key", f, out)
		for _, ff := range flights {
			<-ff.done
			if ff.res.code != http.StatusOK {
				b.Fatal("follower read the wrong outcome")
			}
		}
		if f.size.Load() != followers+1 {
			b.Fatalf("batch size = %d, want %d", f.size.Load(), followers+1)
		}
	}
}

// BenchmarkBatchedRun pushes four identical concurrent requests through
// the full handler stack — middleware, parse, flight window, one engine
// run, response fan-out — with the cache disabled so every iteration
// batches instead of replaying. allocs/op is the cost of one batched
// engine run plus four served requests.
func BenchmarkBatchedRun(b *testing.B) {
	s := New(Config{Workers: 4, CacheEntries: -1, BatchWindow: 2 * time.Millisecond})
	body := graphBytes(b, gen.Cycle(16))
	const clients = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < clients; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body)))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Errorf("status = %d", rec.Code)
				}
			}()
		}
		wg.Wait()
	}
}
