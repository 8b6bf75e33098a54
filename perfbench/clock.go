package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host time. The benchmark runs on a virtual machine of a shared host,
// and the hypervisor at times withholds the VM's CPUs to run other
// guests. The kernel counts that as steal time in /proc/stat, and a
// 2-CPU VM was seen to lose 40% of its CPU time to it for minutes at a
// time. Stolen time passes on the wall clock while no code of the
// program can run, so it measures the neighbours, not the program.
//
// Every end-to-end time the benchmark reports is therefore host time:
// the wall-clock interval minus the steal the VM's CPUs suffered
// meanwhile, averaged over the CPUs. /proc/stat counts steal in 10 ms
// ticks, so the clock samples it at most every stealPeriod, when a
// measurement starts or ends, and spreads each sample interval's steal
// evenly over it: an instant between two samples interpolates, and one
// after the last sample extrapolates at the last interval's rate. Where
// /proc/stat reports no steal, host time is wall time.

// stealPeriod is the least time between two samples. Steal comes in
// bursts, and a sample interval spreads a burst over every measurement
// in it, so the interval is short: about one pca-ward ensemble.
const stealPeriod = 100 * time.Millisecond

// userHZ is the unit of /proc/stat's counters: USER_HZ is 100 on every
// architecture Linux supports.
const userHZ = 100

type stealSample struct {
	at    time.Time
	steal time.Duration // cumulative, summed over the CPUs
}

type hostClock struct {
	mu      sync.Mutex
	cpus    int
	samples []stealSample // in time order
}

// host is the benchmark's one clock for end-to-end times.
var host = newHostClock()

func newHostClock() *hostClock {
	c := &hostClock{cpus: 1}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			if len(line) > 3 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
				n++
			}
		}
		c.cpus = max(n, 1)
	}
	c.now()
	return c
}

// readSteal returns the VM's cumulative steal time over all CPUs.
func readSteal() (time.Duration, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	first, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(first)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * time.Second / userHZ, true
}

// now returns the current instant, sampling the steal counter when the
// last sample is stealPeriod old.
func (c *hostClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := time.Now()
	if n := len(c.samples); n > 0 && t.Sub(c.samples[n-1].at) < stealPeriod {
		return t
	}
	if steal, ok := readSteal(); ok {
		c.samples = append(c.samples, stealSample{t, steal})
	}
	return t
}

// since is the host time from t0 to now.
func (c *hostClock) since(t0 time.Time) time.Duration {
	return c.between(t0, c.now())
}

// between is the host time from t0 to t1.
func (c *hostClock) between(t0, t1 time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	stolen := (c.stolen(t1) - c.stolen(t0)) / time.Duration(c.cpus)
	return max(t1.Sub(t0)-stolen, 0)
}

// stolen is the cumulative steal at t, interpolated between the samples
// around it or extrapolated past the last two. c.mu is held.
func (c *hostClock) stolen(t time.Time) time.Duration {
	s := c.samples
	if len(s) == 0 {
		return 0
	}
	i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t) })
	switch {
	case i == len(s) && i == 1:
		return s[0].steal
	case i == len(s):
		i-- // extrapolate along the last interval
	case i == 0 || s[i].at.Equal(t):
		return s[i].steal
	}
	a, b := s[i-1], s[i]
	frac := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.steal + time.Duration(frac*float64(b.steal-a.steal))
}
