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
	inject   func(s *Synth) // artifact, dropout or bias; nil for clean
}

// goldenWindows is how many windows each case pins.
const goldenWindows = 3

// goldenWindowCases cover the default window at the heart-rate edges
// (25 and 240 bpm land on lags 120 and 12, the ends of the lag range),
// the artifact paths, and non-default windows whose lag ranges leave
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
		{"clean-25", 50, def, 25, 98, 11, nil},
		{"clean-60", 50, def, 60, 97, 12, nil},
		{"clean-140", 50, def, 140, 88, 13, nil},
		{"clean-240", 50, def, 240, 92, 14, nil},
		{"motion-70", 50, def, 70, 97, 21, func(s *Synth) { s.InjectMotion(0, sim.Minute, 8) }},
		{"dropout-70", 50, def, 70, 97, 22, func(s *Synth) { s.InjectDropout(0, 6*sim.Second) }},
		{"bias-80", 50, def, 80, 96, 23, func(s *Synth) { s.InjectBias(0, sim.Minute, 12) }},
		{"30hz-8s-60", 30, 8 * sim.Second, 60, 95, 31, nil},
		{"30hz-8s-140", 30, 8 * sim.Second, 140, 90, 32, nil},
		{"40hz-5s-75", 40, 5 * sim.Second, 75, 97, 33, nil},
		{"50hz-2s-90", 50, 2 * sim.Second, 90, 94, 34, nil},
	}
}

// renderGoldenEstimates runs every case and prints one line per closed
// window: the raw float64 bits of HR, SpO2 and Quality, and the validity
// flag, so any drift in the estimator's arithmetic shows.
func renderGoldenEstimates() string {
	var b strings.Builder
	b.WriteString("# case window hr_bits spo2_bits quality_bits valid\n")
	for _, c := range goldenWindowCases() {
		sp := DefaultSynth()
		sp.SampleRate = c.rate
		synth := NewSynth(sp, sim.NewRNG(c.seed))
		ep := DefaultEstimator()
		ep.SampleRate, ep.Window = c.rate, c.window
		est := NewEstimator(ep)
		if c.inject != nil {
			c.inject(synth)
		}
		dt := synth.SampleInterval()
		w := 0
		for ts := sim.Time(0); w < goldenWindows; ts += dt {
			e, ok := est.Push(synth.Next(ts, dt, c.hr, c.spo2))
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%s %d %016x %016x %016x %t\n", c.name, w,
				math.Float64bits(e.HeartRate), math.Float64bits(e.SpO2), math.Float64bits(e.Quality), e.Valid)
			w++
		}
	}
	return b.String()
}

// TestGoldenEstimates pins the estimator's output bit for bit. Any
// change to the window arithmetic that is meant to be a pure speedup must
// leave this file untouched; regenerate it with -update only for an
// intended change of results.
func TestGoldenEstimates(t *testing.T) {
	got := renderGoldenEstimates()
	path := filepath.Join("testdata", "estimates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("estimator output diverged from %s:\n%s\nwant:\n%s", path, got, want)
	}
}
