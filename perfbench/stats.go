package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile in
// a sorted sample of n values.
func rankIndex(n int, p float64) int {
	// The epsilon keeps p*n/100 that is an integer in exact arithmetic
	// (990 for p99 of 1000) from rounding up past it.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile. A tail percentile needs ten beyond it to
// be more than the few largest values: p99 needs 1000 samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// supportedTail is the highest sample that still has ten samples above
// it: the highest percentile a sample of this size supports (the
// largest sample when there are fewer than eleven).
func supportedTail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s) < 11 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

// smoothPercentile estimates the p-th percentile as the mean of the
// samples ranked within half a percentile point of it, which varies less
// from run to run than the single nearest-rank sample.
func smoothPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	lo, hi := rankIndex(len(s), max(p-0.5, 0)), rankIndex(len(s), min(p+0.5, 100))
	return sum(s[lo:hi+1]) / float64(hi-lo+1)
}

// blockPercentile splits xs, in the order the samples were taken, into
// as many equal blocks of at least minBlock samples as fit (at least
// one), estimates the p-th percentile of each, and returns their median.
// A burst of host noise then moves the blocks it falls in, not the
// result.
func blockPercentile(xs []float64, p float64, minBlock int) float64 {
	k := max(len(xs)/minBlock, 1)
	per := make([]float64, k)
	for b := range k {
		per[b] = smoothPercentile(xs[b*len(xs)/k:(b+1)*len(xs)/k], p)
	}
	return median(per)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durMs and durUs convert nanosecond counts to milliseconds and
// microseconds.
func durMs(ns int64) float64 { return float64(ns) / 1e6 }
func durUs(ns int64) float64 { return float64(ns) / 1e3 }
