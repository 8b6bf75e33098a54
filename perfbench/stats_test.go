package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10, shuffled
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestBeyondCountsTheTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 90, 10}, {99, 90, 9}, {110, 90, 11}, {20, 50, 10}, {0, 90, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestBucketQuantileInterpolates(t *testing.T) {
	// 10 observations in (0,1], 10 in (1,2], none above.
	bs := []bucket{{1, 10}, {2, 20}, {math.Inf(1), 20}}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 1}, {0.25, 0.5}, {0.75, 1.5}, {1, 2},
	} {
		if got := bucketQuantile(c.q, bs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q=%g: %g, want %g", c.q, got, c.want)
		}
	}
	// Ranks in the +Inf bucket report the highest finite bound.
	if got := bucketQuantile(0.9, []bucket{{1, 5}, {math.Inf(1), 10}}); got != 1 {
		t.Errorf("+Inf bucket: %g, want 1", got)
	}
	// Empty leading buckets do not pull the estimate to zero.
	if got := bucketQuantile(0.5, []bucket{{1, 0}, {2, 0}, {4, 4}, {math.Inf(1), 4}}); got != 3 {
		t.Errorf("empty leading buckets: %g, want 3", got)
	}
	if !math.IsNaN(bucketQuantile(0.5, []bucket{{1, 0}, {math.Inf(1), 0}})) {
		t.Error("an empty ladder should give NaN")
	}
}

func TestBucketQuantileTracksSamplesOnTheFineLadder(t *testing.T) {
	ladder := fineLadder()
	var samples []float64
	counts := make([]float64, len(ladder)+1)
	for i := 1; i <= 1000; i++ {
		v := 0.001 * float64(i) // 1ms .. 1s
		samples = append(samples, v)
		j := 0
		for j < len(ladder) && v > ladder[j] {
			j++
		}
		counts[j]++
	}
	var bs []bucket
	cum := 0.0
	for i, le := range append(ladder, math.Inf(1)) {
		cum += counts[i]
		bs = append(bs, bucket{le, cum})
	}
	for _, p := range []float64{50, 90, 99} {
		want := percentile(samples, p)
		got := bucketQuantile(p/100, bs)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("p%g: ladder %g vs samples %g", p, got, want)
		}
	}
}

func TestDeltaSubtractsAnEarlierScrape(t *testing.T) {
	later := []bucket{{1, 7}, {math.Inf(1), 9}}
	earlier := []bucket{{1, 2}, {math.Inf(1), 3}}
	got := delta(later, earlier)
	if got[0].cum != 5 || got[1].cum != 6 || later[0].cum != 7 {
		t.Errorf("delta = %v (later now %v)", got, later)
	}
}
