package sigproc

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden estimator vectors")

// goldenWindowCase is one seeded pleth stream fed through an estimator
// with default gates; every window it closes is pinned.
type goldenWindowCase struct {
	name     string
	rate     float64  // Hz, shared by synth and estimator
	window   sim.Time // estimator window length
	hr, spo2 float64  // true vitals
	seed     int64
	at       sim.Time                     // inject runs before the first sample at or after at
	inject   func(s *Synth, now sim.Time) // artifact, dropout or bias; nil for clean
}

// goldenWindows is how many windows each case pins.
const goldenWindows = 3

// goldenWindowCases cover the default window at the heart-rate edges
// (25 and 240 bpm land on lags 120 and 12, the ends of the lag range),
// the artifact paths (the -mid cases switch motion and bias on and off
// inside window 1, and bias off again inside window 2, so the
// per-sample injection checks show), and
// non-default windows whose lag ranges leave
// every remainder modulo the sweep's block of four lags:
//
//	50 Hz x 4 s: lags 12..120 (109 lags, remainder 1)
//	30 Hz x 8 s: lags  7..72  ( 66 lags, remainder 2)
//	40 Hz x 5 s: lags 10..96  ( 87 lags, remainder 3)
//	50 Hz x 2 s: lags 12..99  ( 88 lags, remainder 0; the range is
//	             clipped to the window's last lag)
func goldenWindowCases() []goldenWindowCase {
	const def = 4 * sim.Second
	return []goldenWindowCase{
		{"clean-25", 50, def, 25, 98, 11, 0, nil},
		{"clean-60", 50, def, 60, 97, 12, 0, nil},
		{"clean-140", 50, def, 140, 88, 13, 0, nil},
		{"clean-240", 50, def, 240, 92, 14, 0, nil},
		{"motion-70", 50, def, 70, 97, 21, 0, func(s *Synth, now sim.Time) { s.InjectMotion(now, sim.Minute, 8) }},
		{"dropout-70", 50, def, 70, 97, 22, 0, func(s *Synth, now sim.Time) { s.InjectDropout(now, 6*sim.Second) }},
		{"bias-80", 50, def, 80, 96, 23, 0, func(s *Synth, now sim.Time) { s.InjectBias(now, sim.Minute, 12) }},
		{"motion-mid", 50, def, 70, 97, 24, 5 * sim.Second, func(s *Synth, now sim.Time) { s.InjectMotion(now, 2500*sim.Millisecond, 8) }},
		{"bias-mid", 50, def, 80, 96, 25, 6 * sim.Second, func(s *Synth, now sim.Time) { s.InjectBias(now, 3500*sim.Millisecond, 12) }},
		{"30hz-8s-60", 30, 8 * sim.Second, 60, 95, 31, 0, nil},
		{"30hz-8s-140", 30, 8 * sim.Second, 140, 90, 32, 0, nil},
		{"40hz-5s-75", 40, 5 * sim.Second, 75, 97, 33, 0, nil},
		{"50hz-2s-90", 50, 2 * sim.Second, 90, 94, 34, 0, nil},
	}
}

// renderGoldenEstimates runs every case and prints one line per closed
// window: the raw float64 bits of HR, SpO2 and Quality, and the validity
// flag, so any drift in the estimator's arithmetic shows. Sample by
// sample, the stream goes through Next and Push; window at a time, as
// the oximeter runs it, through Fill and Analyze, with the window's Fill
// split at an injection's onset. Both must print the same.
func renderGoldenEstimates(windowAtATime bool) string {
	var b strings.Builder
	b.WriteString("# case window hr_bits spo2_bits quality_bits valid\n")
	for _, c := range goldenWindowCases() {
		sp := DefaultSynth()
		sp.SampleRate = c.rate
		synth := NewSynth(sp, sim.NewRNG(c.seed))
		ep := DefaultEstimator()
		ep.SampleRate, ep.Window = c.rate, c.window
		est := NewEstimator(ep)
		dt := synth.SampleInterval()
		emit := func(w int, e Estimate) {
			fmt.Fprintf(&b, "%s %d %016x %016x %016x %t\n", c.name, w,
				math.Float64bits(e.HeartRate), math.Float64bits(e.SpO2), math.Float64bits(e.Quality), e.Valid)
		}
		if windowAtATime {
			win := make([]PlethSample, est.WindowSamples())
			injected := c.inject == nil
			for w := range goldenWindows {
				t0 := sim.Time(w*len(win)) * dt
				k := 0 // samples before the onset
				if !injected && c.at < t0+sim.Time(len(win))*dt {
					for t0+sim.Time(k)*dt < c.at {
						k++
					}
					synth.Fill(win[:k], t0, dt, c.hr, c.spo2)
					c.inject(synth, t0+sim.Time(k)*dt)
					injected = true
				}
				synth.Fill(win[k:], t0+sim.Time(k)*dt, dt, c.hr, c.spo2)
				emit(w, est.Analyze(win))
			}
			continue
		}
		w := 0
		for ts := sim.Time(0); w < goldenWindows; ts += dt {
			if c.inject != nil && ts >= c.at && ts-dt < c.at {
				c.inject(synth, ts)
			}
			if e, ok := est.Push(synth.Next(ts, dt, c.hr, c.spo2)); ok {
				emit(w, e)
				w++
			}
		}
	}
	return b.String()
}

// TestGoldenEstimates pins the estimator's output bit for bit, sample by
// sample and window at a time. Any change to the window arithmetic that
// is meant to be a pure speedup must leave this file untouched;
// regenerate it with -update only for an intended change of results.
func TestGoldenEstimates(t *testing.T) {
	path := filepath.Join("testdata", "estimates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(renderGoldenEstimates(false)), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	for _, windowAtATime := range []bool{false, true} {
		if got := renderGoldenEstimates(windowAtATime); got != string(want) {
			t.Fatalf("estimator output (window at a time: %t) diverged from %s:\n%s\nwant:\n%s", windowAtATime, path, got, want)
		}
	}
}
