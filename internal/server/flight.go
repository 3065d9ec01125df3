package server

import (
	"sync"
	"sync/atomic"
)

// flightGroup coalesces in-flight /v1/run requests for one run: the
// first request for a (graph digest, algorithm) key becomes the leader
// and executes the run; every request for the same key arriving while
// it is in flight, whatever its response shape, becomes a follower and
// waits for the leader's outcome instead of occupying a second worker
// slot. Together with the result cache this closes the stampede window
// — the cache serves repeats of *finished* runs, the flight group
// serves repeats of *running* ones.
//
// Outcomes come in two classes. Deterministic outcomes — a run's
// record, or a run failure that is a function of the graph and
// algorithm alone (round limit, malformed send) — are shared with every
// follower. Private outcomes — the leader's deadline expired, its
// client went away, or its admission budget ran out — say nothing about
// what any other request would see, so followers are not poisoned with
// them: the flight resolves marked private and each follower retries,
// the first one becoming the new leader.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-flight run. done is closed exactly once, after res is
// set; followers must only read res after done is closed. size counts
// every request the flight serves (leader included); it is stable once
// finish has removed the key, so a leader reads it after finishing to
// report the batch size.
type flight struct {
	done chan struct{}
	res  flightResult
	size atomic.Int64
}

// flightResult is a request's run outcome, as a leader publishes it: a
// private outcome makes followers retry; otherwise StatusOK carries the
// run's record, and any other code carries msg.
type flightResult struct {
	private bool
	code    int
	msg     string
	rec     *runRecord
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the flight for key, creating it if none is in flight. The
// second result is true when the caller became the leader and now owes
// exactly one finish call on every exit path.
func (fg *flightGroup) join(key string) (*flight, bool) {
	fg.mu.Lock()
	defer fg.mu.Unlock()
	if f, ok := fg.m[key]; ok {
		f.size.Add(1)
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	f.size.Add(1)
	fg.m[key] = f
	return f, true
}

// finish publishes the leader's outcome and wakes every follower. The
// key is removed before done is closed, so a request arriving after the
// outcome starts a fresh flight rather than reading a stale one.
func (fg *flightGroup) finish(key string, f *flight, res flightResult) {
	fg.mu.Lock()
	delete(fg.m, key)
	fg.mu.Unlock()
	f.res = res
	close(f.done)
}
