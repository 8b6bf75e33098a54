package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in (0,100]) of
// xs, which it does not modify; NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// beyond counts the samples ranked strictly above the p-th percentile:
// a percentile is only reported as measured when at least ten are.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// bucket is one cumulative histogram bucket: count observations <= le.
type bucket struct {
	le  float64 // upper bound; +Inf for the last bucket
	cum float64
}

// bucketQuantile estimates the q-quantile (q in [0,1]) of a cumulative
// bucket ladder sorted by le, interpolating linearly inside the bucket
// that holds the target rank (the lower edge of the first bucket is 0).
// A rank that falls in the +Inf bucket reports the highest finite bound.
// NaN when the ladder holds no observations.
func bucketQuantile(q float64, bs []bucket) float64 {
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return math.NaN()
	}
	target := q * bs[len(bs)-1].cum
	lower, below := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > below {
			if math.IsInf(b.le, 1) {
				return lower
			}
			return lower + (b.le-lower)*(target-below)/(b.cum-below)
		}
		if !math.IsInf(b.le, 1) {
			lower = b.le
		}
		below = b.cum
	}
	return lower
}

// fineLadder is the bucket ladder of the benchmark's own latency
// histograms: 10µs to ~168s in steps of 2^(1/8) (about 9%), so an
// interpolated percentile is within a few percent of the sample value.
func fineLadder() []float64 {
	var out []float64
	for v := 10e-6; v < 200; v *= math.Pow(2, 1.0/8) {
		out = append(out, v)
	}
	return out
}
