package main

import (
	"sort"
	"time"
)

// In a virtual machine the host may take CPU time away in bursts
// ("steal", which reached a third of a second per second on a busy
// 2-CPU host). Steal is the host's cost, not the program's, so the
// wall-clock metrics are computed over the least-stolen part of each run:
// the seconds (HTTP workloads) or solves (solve-large) with the least
// steal, at least half of the run. Every sample is still checked and
// counted; the report states the share kept and the steal in both parts.

// quietest returns the indices of the items with the least steal, in
// increasing steal: the fewest that make up at least half of the items
// and whose weights sum to at least minWeight (or all of them), plus any
// tied with the last one taken, so a host that reports no steal keeps
// everything.
func quietest(steal []float64, weight []int, minWeight int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	w := 0
	for k, i := range idx {
		if k >= (len(idx)+1)/2 && w >= minWeight && steal[i] > steal[idx[k-1]] {
			return idx[:k]
		}
		w += weight[i]
	}
	return idx
}

// slice is one second of a measured phase.
type slice struct {
	end   time.Time
	steal float64 // host CPU steal share during the slice
	cpuMs float64 // CPU time of the system under test during the slice
}

// sampler records host steal and the CPU time of the system under test
// once a second until stopped.
type sampler struct {
	cpu    func() float64
	stopc  chan struct{}
	done   chan struct{}
	start  time.Time
	slices []slice
}

func startSampler(cpu func() float64) *sampler {
	s := &sampler{cpu: cpu, stopc: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	host, cpu := hostCPU(), s.cpu()
	for {
		select {
		case <-s.stopc:
			return // a partial last second is dropped
		case now := <-t.C:
			h, c := hostCPU(), s.cpu()
			s.slices = append(s.slices, slice{end: now, steal: h.stealSince(host), cpuMs: c - cpu})
			host, cpu = h, c
		}
	}
}

// stop ends sampling and returns the whole seconds recorded.
func (s *sampler) stop() []slice {
	close(s.stopc)
	<-s.done
	return s.slices
}

// sliceOf is the index of the slice a moment falls in, or -1 outside
// the sampled seconds.
func sliceOf(start time.Time, slices []slice, t time.Time) int {
	if t.Before(start) {
		return -1
	}
	i := sort.Search(len(slices), func(i int) bool { return t.Before(slices[i].end) })
	if i == len(slices) {
		return -1
	}
	return i
}
