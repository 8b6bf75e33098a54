package sigproc

import (
	"math"

	"repro/internal/sim"
)

// PlethSample is one two-wavelength photoplethysmogram sample. Real pulse
// oximeters shine red (~660 nm) and infrared (~940 nm) light through the
// finger; the ratio of the pulsatile (AC) to steady (DC) absorbances at
// the two wavelengths encodes arterial oxygen saturation.
type PlethSample struct {
	T   sim.Time
	Red float64
	IR  float64
}

// SynthParams control waveform generation.
type SynthParams struct {
	SampleRate  float64 // Hz; clinical oximeters run 30-100 Hz
	Perfusion   float64 // AC/DC fraction of the IR channel (typ. 0.02)
	NoiseStddev float64 // additive white noise on each channel
}

// DefaultSynth returns typical front-end characteristics.
func DefaultSynth() SynthParams {
	return SynthParams{SampleRate: 50, Perfusion: 0.02, NoiseStddev: 0.0004}
}

// Synth generates pleth waveforms from ground-truth vitals. It keeps the
// cardiac phase continuous across calls so that heart-rate changes do not
// produce waveform discontinuities.
type Synth struct {
	p     SynthParams
	rng   *sim.RNG
	phase float64 // cardiac phase in [0,1)

	artifactUntil sim.Time
	artifactGain  float64
	dropoutUntil  sim.Time
	biasUntil     sim.Time
	biasDelta     float64 // SpO2 points subtracted while biased
}

// NewSynth returns a generator. rng must be non-nil.
func NewSynth(p SynthParams, rng *sim.RNG) *Synth {
	if p.SampleRate <= 0 {
		panic("sigproc: sample rate must be positive")
	}
	return &Synth{p: p, rng: rng}
}

// SampleInterval returns the spacing between samples.
func (s *Synth) SampleInterval() sim.Time {
	return sim.FromSeconds(1 / s.p.SampleRate)
}

// pulseShape is a stylized arterial pulse: sharp systolic upstroke with a
// dicrotic notch, built from two raised cosines. Phase in [0,1).
func pulseShape(phase float64) float64 {
	systole := 0.0
	if phase < 0.35 {
		systole = 0.5 * (1 - math.Cos(2*math.Pi*phase/0.35))
	}
	dicrotic := 0.0
	if phase >= 0.4 && phase < 0.65 {
		dicrotic = 0.12 * (1 - math.Cos(2*math.Pi*(phase-0.4)/0.25))
	}
	return systole + dicrotic
}

// RatioForSpO2 inverts the classic empirical calibration SpO2 = 110 - 25R,
// giving the red/IR modulation ratio R that encodes a saturation.
func RatioForSpO2(spo2 float64) float64 {
	if spo2 > 100 {
		spo2 = 100
	}
	if spo2 < 50 {
		spo2 = 50
	}
	return (110 - spo2) / 25
}

// SpO2ForRatio applies the calibration in the forward direction.
func SpO2ForRatio(r float64) float64 {
	s := 110 - 25*r
	if s > 100 {
		s = 100
	}
	if s < 0 {
		s = 0
	}
	return s
}

// Next produces the sample at time t for a patient with the given true
// heart rate and SpO2. dt is the time since the previous sample. It is a
// one-sample Fill.
func (s *Synth) Next(t sim.Time, dt sim.Time, heartRate, spo2 float64) PlethSample {
	var out [1]PlethSample
	s.Fill(out[:], t, dt, heartRate, spo2)
	return out[0]
}

// Fill produces len(dst) consecutive samples, dst[i] at t0 + i*dt, for a
// patient whose true heart rate and SpO2 hold over the whole span; dt is
// also the time from the previous sample to dst[0]. It equals len(dst)
// Next calls bit for bit, RNG draws included: what is fixed for the call
// is computed once, with the expressions a single sample uses, while the
// dropout, bias and artifact windows are still checked sample by sample.
func (s *Synth) Fill(dst []PlethSample, t0, dt sim.Time, heartRate, spo2 float64) {
	if heartRate < 10 {
		heartRate = 10
	}
	step := heartRate / 60 * dt.Seconds()
	acIR := s.p.Perfusion
	noise := s.p.NoiseStddev
	acRed := RatioForSpO2(spo2) * acIR
	acRedBiased := acRed
	if t0 < s.biasUntil {
		// Probe misposition: the waveform stays clean (the estimator sees
		// high quality) but the red/IR ratio is shifted — a plausible,
		// VALID, wrong reading. This is the failure mode multivariate
		// smart alarms exist to reject.
		acRedBiased = RatioForSpO2(spo2-s.biasDelta) * acIR
	}
	phase := s.phase
	for i := range dst {
		t := t0 + sim.Time(i)*dt
		phase += step
		phase -= math.Floor(phase)

		if t < s.dropoutUntil {
			// Probe disconnected: both channels collapse to ambient noise.
			dst[i] = PlethSample{T: t, Red: s.rng.Normal(0, noise*5), IR: s.rng.Normal(0, noise*5)}
			continue
		}
		ac := acRed
		if t < s.biasUntil {
			ac = acRedBiased
		}
		pulse := pulseShape(phase)
		ir := 1 + acIR*pulse + s.rng.Normal(0, noise)
		red := 1 + ac*pulse + s.rng.Normal(0, noise)

		if t < s.artifactUntil {
			// Motion artifact: correlated large-amplitude disturbance.
			m := s.artifactGain * s.rng.Normal(0, acIR*4)
			ir += m
			red += m * s.rng.Uniform(0.7, 1.3)
		}
		dst[i] = PlethSample{T: t, Red: red, IR: ir}
	}
	s.phase = phase
}

// InjectMotion corrupts the signal with motion artifact for the duration.
func (s *Synth) InjectMotion(now sim.Time, d sim.Time, gain float64) {
	if gain <= 0 {
		gain = 1
	}
	s.artifactUntil = now + d
	s.artifactGain = gain
}

// InjectDropout simulates probe disconnection for the duration.
func (s *Synth) InjectDropout(now sim.Time, d sim.Time) {
	s.dropoutUntil = now + d
}

// InjectBias shifts the reported saturation down by delta points for the
// duration while keeping the waveform clean — a mispositioned probe whose
// readings pass the signal-quality check.
func (s *Synth) InjectBias(now sim.Time, d sim.Time, delta float64) {
	s.biasUntil = now + d
	s.biasDelta = delta
}

// InArtifact reports whether an artifact, dropout or bias is active at t.
func (s *Synth) InArtifact(t sim.Time) bool {
	return t < s.artifactUntil || t < s.dropoutUntil || t < s.biasUntil
}
