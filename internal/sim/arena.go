package sim

// StateArena is a bump allocator for per-node algorithm state.
// Algorithm.BuildNodes carves its nodes' int and bool slices out of a
// small number of large chunks instead of allocating one heap object
// per node, so constructing a 100k-node run costs O(1) allocations, not
// O(n) — and because the arenas live inside the pooled runState, a
// steady-state workload of one recurring graph shape reaches zero
// construction allocations after its first run: the chunks are
// retained across runs and merely rewound.
//
// Lifetime contract (the arenaalias analyzer in internal/lint enforces
// it mechanically): a carved slice is engine-owned, valid only for the
// run it was carved in. The engine rewinds the arena when the next run
// acquires the pooled state, after which every previously carved slice
// aliases freshly zeroed state of an unrelated run. Algorithms store
// carved slices in node state that dies with the run — never in the
// Algorithm value itself, a package-level variable, a channel, or a
// goroutine that outlives the run.
//
// Carve is NOT safe for concurrent use; the sharded engine gives every
// worker its own arena, so per-shard construction needs no locks.
type StateArena struct {
	ints  arenaSlab[int]
	bools arenaSlab[bool]
}

// Ints carves a zeroed []int of length n (capacity capped at n, so an
// append past the carved length cannot bleed into a neighbour's state).
func (a *StateArena) Ints(n int) []int { return a.ints.carve(n) }

// Bools carves a zeroed []bool of length n, capacity capped at n.
func (a *StateArena) Bools(n int) []bool { return a.bools.carve(n) }

// reset rewinds the arena to empty, keeping the chunks for reuse. The
// engines call it when the pooled runState is acquired; every slice
// carved before the reset is invalidated.
func (a *StateArena) reset() {
	a.ints.reset()
	a.bools.reset()
}

// arenaMinChunk is the element count of a slab's first chunk. Chunks
// at least double, so a slab serving total T elements holds O(log T)
// chunks and wastes at most half of the last one.
const arenaMinChunk = 1024

// arenaSlab is one element type's chunk list plus a bump cursor.
type arenaSlab[T int | bool] struct {
	chunks [][]T
	chunk  int // index of the chunk the cursor is in
	off    int // first free element of chunks[chunk]
}

func (s *arenaSlab[T]) carve(n int) []T {
	if n <= 0 {
		return nil
	}
	for {
		if s.chunk < len(s.chunks) {
			c := s.chunks[s.chunk]
			if s.off+n <= len(c) {
				out := c[s.off : s.off+n : s.off+n]
				s.off += n
				// Chunks are recycled across runs; hand out zeroed state.
				clear(out)
				return out
			}
			// The tail of this chunk is too small; skip to the next. The
			// waste is bounded by one request size per chunk.
			s.chunk++
			s.off = 0
			continue
		}
		size := arenaMinChunk
		if len(s.chunks) > 0 {
			size = 2 * len(s.chunks[len(s.chunks)-1])
		}
		for size < n {
			size *= 2
		}
		s.chunks = append(s.chunks, make([]T, size))
	}
}

func (s *arenaSlab[T]) reset() {
	s.chunk, s.off = 0, 0
}
