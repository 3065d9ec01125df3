package sim

import "sync"

// runState is the engine-owned per-execution state: the node slice, the
// per-node retirement flags, the flat outbox and inbox of the round
// loop with its per-shard delivery lists, and the per-shard
// coordination state. It is recycled through a sync.Pool so that repeated
// runs — the edsd serving pattern of many requests over same-shape
// graphs — allocate nothing beyond the algorithm's own node state: an
// acquired state whose slices already have the required capacity is
// reused as-is, and a smaller one grows with power-of-two rounding so a
// workload of one recurring shape reaches a steady state after its
// first run.
//
// Lifetime discipline (enforced by the engines, mechanically leaned on
// by the outboxalias analyzer): a state is acquired at run entry and
// released exactly once on every exit path, after all worker goroutines
// have stopped — the release is deferred before the workers start, so
// on every error exit the deferred worker shutdown runs first and no
// goroutine can touch a recycled buffer. release clears the node slots, so the pool never pins node
// state across runs, and zeroes the message buffers for the next run.
// Messages are plain words, so the collector never scans those buffers.
type runState struct {
	nodes    []Node
	done     []bool
	outbox   []Message // flat send buffer, indexed by global port
	inbox    []Message // flat receive buffer: inbox[route[j]] is written when outbox[j] is sent
	stats    []shardStat
	bounds   []int
	hookView [][]Message // per-node outbox windows, built only for hooked runs

	// delivered holds each shard's delivery list: the global ports j
	// whose outbox[j] carried a message in the shard's last send phase.
	// Shard s's list lives in the shard's own port range,
	// delivered[off[lo]:off[lo]+stats[s].sent], so the lists cost one
	// int32 per port and never grow. The next send phase sets exactly
	// those outbox[j] and inbox[route[j]] back to 0.
	delivered []int32

	// arenas[s] is shard s's StateArena. The chunks persist across
	// pooled runs — acquireState only rewinds the cursors — so node
	// state stops allocating once a workload's shape has been seen.
	// Held as a slice of values, one per worker, so parallel
	// construction needs no locks.
	arenas []StateArena

	// Worker phase coordination for runs over p > 1 shards, reused
	// across runs because a channel cannot be closed and recycled: stop
	// tokens, not close, end a worker pool. Each worker owns one token
	// channel — a shared channel would let a fast worker steal a slow
	// one's phase token and run its shard twice while the other shard
	// never runs. Capacities are grown like the slices.
	work []chan int
	idle chan struct{}
}

// shardStat is one shard's slot of per-round accounting. Workers touch
// only their own slot, so the phases stay race-free by construction.
type shardStat struct {
	sent    int   // nonzero messages this round, the delivery list's length
	pending int   // nodes not yet retired
	err     error // first nil node or invalid output (lowest node in shard)
}

var statePool = sync.Pool{New: func() any { return new(runState) }}

// roundCap rounds a requested length up to a power of two so that
// same-shape workloads stabilise on one buffer size and near-shapes
// share it.
func roundCap(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// grow returns buf resized to length n, reusing its backing array when
// the capacity suffices and allocating with power-of-two rounding when
// it does not. The returned slice's contents are unspecified; callers
// overwrite or clear what they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n, roundCap(n))
}

// acquireState returns a runState ready for a run over n nodes and
// ports global ports, with room for p >= 1 shards. done and stats come
// back zeroed, so every delivery list starts empty; the message buffers
// are all-zero because release cleared them.
func acquireState(n, ports, p int) *runState {
	s := statePool.Get().(*runState)
	s.nodes = grow(s.nodes, n)
	s.done = grow(s.done, n)
	clear(s.done)
	s.outbox = grow(s.outbox, ports)
	s.inbox = grow(s.inbox, ports)
	s.delivered = grow(s.delivered, ports)
	// One arena per worker. Unlike grow, the resize must preserve the
	// surviving elements: each arena carries chunks whose whole point is
	// reuse across runs.
	if cap(s.arenas) >= p {
		s.arenas = s.arenas[:p]
	} else {
		old := s.arenas
		s.arenas = make([]StateArena, p, roundCap(p))
		copy(s.arenas, old)
	}
	for i := range s.arenas {
		s.arenas[i].reset()
	}
	s.stats = grow(s.stats, p)
	clear(s.stats)
	s.bounds = grow(s.bounds, p+1)
	if p > 1 {
		s.work = grow(s.work, p)
		for i := range s.work {
			if s.work[i] == nil {
				s.work[i] = make(chan int, 1)
			}
		}
		if cap(s.idle) < p {
			s.idle = make(chan struct{}, roundCap(p))
		}
	}
	return s
}

// release clears the node references the state holds, zeroes the
// message buffers, and returns the state to the pool. The engines call
// it via defer after all workers have stopped; a released state must
// never be touched again by the run that held it. The message buffers
// are cleared whole, not through the delivery lists, so a run that
// stopped mid-round (an error, or a panic in node code) still hands the
// next run all-zero buffers. The arenas stay as they are: their chunks
// hold only ints and bools, so they pin nothing, and keeping them warm
// is what makes repeat construction allocation-free.
func (s *runState) release() {
	clear(s.nodes)
	clear(s.outbox)
	clear(s.inbox)
	clear(s.stats)
	clear(s.hookView)
	s.hookView = s.hookView[:0]
	statePool.Put(s)
}

// hookRows builds the hook's per-node view of the flat outbox: one
// capped subslice per node, the sent[v][i-1] matrix WithRoundHook
// documents. Only hooked runs pay this (one slice of n headers per
// run); hooks exist for traces and figures, not for the steady-state
// serving path.
func (s *runState) hookRows(off []int32, n int) [][]Message {
	rows := grow(s.hookView[:0], n)
	for v := 0; v < n; v++ {
		rows[v] = s.outbox[off[v]:off[v+1]:off[v+1]]
	}
	s.hookView = rows
	return rows
}
