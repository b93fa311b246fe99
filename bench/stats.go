package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs: the smallest sample
// with at least p percent of the samples at or below it.  With two
// samples the 99th percentile is therefore the larger one.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	return s[nearestRank(p, n)-1]
}

// nearestRank is the 1-based position of the p-th percentile among n
// sorted samples.  The small tolerance keeps 99.9% of 10000 at 9990
// where floating point makes it 9990.000000000002.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// tailPercentiles are the candidates for the reported tail.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// topPercentile returns the highest candidate percentile that still has
// at least ten samples beyond it, and its value; ok is false when even
// the median has fewer than ten samples above it.
func topPercentile(xs []float64) (p, v float64, ok bool) {
	for _, c := range tailPercentiles {
		// Samples strictly beyond the nearest-rank position.
		if len(xs) > 0 && len(xs)-nearestRank(c, len(xs)) >= 10 {
			p, ok = c, true
		}
	}
	if !ok {
		return 0, 0, false
	}
	return p, percentile(xs, p), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
