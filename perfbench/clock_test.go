package main

import (
	"testing"
	"time"
)

func TestHostClockSubtractsInterpolatedSteal(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	c := &hostClock{cpus: 2, samples: []stealSample{
		{at: at(0)},
		{at: at(100)},
		{at: at(200), steal: 100 * time.Millisecond}, // both CPUs lost half of 100 ms
		{at: at(300), steal: 100 * time.Millisecond},
	}}
	for _, tc := range []struct {
		from, to int
		want     time.Duration
	}{
		{0, 100, 100 * time.Millisecond},   // no steal
		{100, 200, 50 * time.Millisecond},  // 100 ms stolen over 2 CPUs
		{150, 200, 25 * time.Millisecond},  // half the sample interval: half its steal
		{0, 300, 250 * time.Millisecond},   // spans every sample
		{250, 300, 50 * time.Millisecond},  // after the steal
		{300, 400, 100 * time.Millisecond}, // past the last sample, whose interval had no steal
	} {
		if got := c.between(at(tc.from), at(tc.to)); got != tc.want {
			t.Errorf("between(%d ms, %d ms) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestHostClockExtrapolatesPastTheLastSample(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// One CPU, losing a quarter of its time over the last interval.
	c := &hostClock{cpus: 1, samples: []stealSample{{at: at(0)}, {at: at(100), steal: 25 * time.Millisecond}}}
	if got, want := c.between(at(100), at(140)), 30*time.Millisecond; got != want {
		t.Errorf("between = %v, want %v", got, want)
	}
	// With one sample there is no rate to go on.
	c = &hostClock{cpus: 1, samples: []stealSample{{at: at(0)}}}
	if got, want := c.between(at(0), at(40)), 40*time.Millisecond; got != want {
		t.Errorf("between with one sample = %v, want %v", got, want)
	}
}

func TestHostClockNeverNegative(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// A 10 ms steal tick that lands inside a 2 ms interval is more than
	// the interval: the interval reports 0, not a negative time.
	c := &hostClock{cpus: 1, samples: []stealSample{{at: t0}, {at: t0.Add(2 * time.Millisecond), steal: 10 * time.Millisecond}}}
	if got := c.between(t0, t0.Add(2*time.Millisecond)); got != 0 {
		t.Errorf("between = %v, want 0", got)
	}
}

func TestHostClockWithoutStealIsWallTime(t *testing.T) {
	c := &hostClock{cpus: 2}
	t0 := time.Unix(1000, 0)
	if got := c.between(t0, t0.Add(time.Second)); got != time.Second {
		t.Errorf("between = %v, want 1s", got)
	}
}
