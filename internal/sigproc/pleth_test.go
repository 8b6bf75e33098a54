package sigproc

import (
	"testing"

	"repro/internal/sim"
)

// One Fill of a window must equal consecutive Next calls on a second
// generator with the same seed, bit for bit and draw for draw: clean,
// and with each injection switching off inside the second of three
// windows, across heart-rate changes (5 bpm takes the clamp) that the
// cardiac phase must carry between calls.
func TestFillMatchesNext(t *testing.T) {
	const until = 6300 * sim.Millisecond // inside window 1 of 4 s windows
	injections := map[string]func(s *Synth){
		"clean":   func(*Synth) {},
		"motion":  func(s *Synth) { s.InjectMotion(0, until, 3) },
		"dropout": func(s *Synth) { s.InjectDropout(0, until) },
		"bias":    func(s *Synth) { s.InjectBias(0, until, 12) },
	}
	vitals := [][2]float64{{78, 97}, {5, 90}, {150, 60}}
	for name, inject := range injections {
		fill := NewSynth(DefaultSynth(), sim.NewRNG(9))
		next := NewSynth(DefaultSynth(), sim.NewRNG(9))
		inject(fill)
		inject(next)
		dt := fill.SampleInterval()
		win := make([]PlethSample, 200)
		for w, v := range vitals {
			t0 := sim.Time(w*len(win)) * dt
			fill.Fill(win, t0, dt, v[0], v[1])
			for i, got := range win {
				want := next.Next(t0+sim.Time(i)*dt, dt, v[0], v[1])
				if got.T != want.T || !sameBits(got.Red, want.Red) || !sameBits(got.IR, want.IR) {
					t.Fatalf("%s window %d sample %d: Fill %+v, Next %+v", name, w, i, got, want)
				}
			}
		}
		if a, b := fill.rng.Float64(), next.rng.Float64(); a != b {
			t.Fatalf("%s: the generators drew different numbers of values", name)
		}
		if fill.phase != next.phase {
			t.Fatalf("%s: cardiac phase %v after Fill, %v after Next", name, fill.phase, next.phase)
		}
	}
}

// BenchmarkSynthFill synthesizes one default 4 s, 50 Hz window at 78 bpm.
func BenchmarkSynthFill(b *testing.B) {
	synth := NewSynth(DefaultSynth(), sim.NewRNG(1))
	dt := synth.SampleInterval()
	win := make([]PlethSample, NewEstimator(DefaultEstimator()).WindowSamples())
	b.ReportAllocs()
	t0 := sim.Time(0)
	for b.Loop() {
		synth.Fill(win, t0, dt, 78, 97)
		t0 += sim.Time(len(win)) * dt
	}
}
