package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the functions must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(seq(1000), 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// The highest percentile a run may report is the one with at least ten
// samples beyond it: p99 needs 1000 samples.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct{ n, beyond int }{{1000, 10}, {999, 9}, {1100, 11}, {24, 0}, {0, 0}} {
		if got := samplesBeyond(c.n, 99); got != c.beyond {
			t.Errorf("samplesBeyond(%d, 99) = %d, want %d", c.n, got, c.beyond)
		}
	}
	if got := samplesBeyond(20, 50); got != 10 {
		t.Errorf("samplesBeyond(20, 50) = %d, want 10", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestSupportedTail(t *testing.T) {
	if got := supportedTail(seq(45)); got != 35 {
		t.Errorf("supportedTail(1..45) = %v, want 35 (ten samples above it)", got)
	}
	if got := supportedTail(seq(5)); got != 5 {
		t.Errorf("supportedTail(1..5) = %v, want the largest value 5", got)
	}
}

func TestSmoothPercentile(t *testing.T) {
	// p99 of 1..1000 averages ranks 985 to 995.
	if got := smoothPercentile(seq(1000), 99); got != 990 {
		t.Errorf("smoothPercentile(1..1000, 99) = %v, want 990", got)
	}
	if got := smoothPercentile(seq(3), 50); got != 2 {
		t.Errorf("smoothPercentile(1..3, 50) = %v, want 2", got)
	}
	if got := smoothPercentile(nil, 99); got != 0 {
		t.Errorf("smoothPercentile(nil) = %v", got)
	}
}

func TestBlockPercentile(t *testing.T) {
	// Three blocks of 1000; a burst of slow samples confined to the
	// middle block moves that block's p99, not the median over blocks.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 1e6
	}
	// Ranks 985 to 995 of 0..99 repeated ten times: six 98s, five 99s.
	if got, want := blockPercentile(xs, 99, 1000), (6*98.0+5*99)/11; math.Abs(got-want) > 1e-9 {
		t.Errorf("blockPercentile = %v, want %v", got, want)
	}
	if got := percentile(xs, 99); got != 1e6 {
		t.Errorf("plain p99 = %v, want the burst's 1e6", got)
	}
	if got := blockPercentile(seq(10), 50, 100); got != 5.5 {
		t.Errorf("one short block = %v, want its smoothed median 5.5", got)
	}
}

func TestQuietest(t *testing.T) {
	steal := []float64{0.30, 0.01, 0.02, 0.20, 0.00, 0.05}
	none := make([]int, len(steal))
	if got, want := quietest(steal, none, 0), []int{4, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("least-stolen half = %v, want %v", got, want)
	}
	// Too few samples in the quiet half: more seconds are kept, in
	// increasing steal, until the weight is reached.
	weight := []int{400, 300, 300, 400, 300, 300}
	if got, want := quietest(steal, weight, 1000), []int{4, 1, 2, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("with 1000 samples needed = %v, want %v", got, want)
	}
	if got := quietest(steal, weight, 1e9); len(got) != len(steal) {
		t.Errorf("unreachable weight keeps %d of %d items, want all", len(got), len(steal))
	}
	// Ties with the last item taken are kept too, so a host that
	// reports no steal keeps everything.
	if got, want := quietest([]float64{0.1, 0, 0, 0.1}, make([]int, 4), 0), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("half without ties = %v, want %v", got, want)
	}
	if got, want := quietest([]float64{0, 0.1, 0, 0}, make([]int, 4), 0), []int{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("with ties = %v, want %v", got, want)
	}
	if got := quietest(make([]float64, 4), make([]int, 4), 0); len(got) != 4 {
		t.Errorf("no steal keeps %d of 4", len(got))
	}
}

func TestSliceOf(t *testing.T) {
	t0 := time.Unix(100, 0)
	slices := []slice{{end: t0.Add(time.Second)}, {end: t0.Add(2 * time.Second)}}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{-time.Millisecond, -1}, {0, 0}, {999 * time.Millisecond, 0}, {time.Second, 1}, {2 * time.Second, -1}} {
		if got := sliceOf(t0, slices, t0.Add(c.at)); got != c.want {
			t.Errorf("sliceOf(+%v) = %d, want %d", c.at, got, c.want)
		}
	}
}
