package sigproc

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// sameBits reports whether a and b are the same float64 bit for bit. Any
// two NaNs count as equal: which operand's payload an add propagates can
// follow the register order the compiler picked, which is not arithmetic.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkLagSweep runs lagSweep over [lo, hi] and compares every lag with
// the one-lag lagCorr; lags outside the range must be left untouched.
func checkLagSweep(t *testing.T, x []float64, lo, hi int) {
	t.Helper()
	const sentinel = -12345.5
	r := make([]float64, len(x))
	for i := range r {
		r[i] = sentinel
	}
	lagSweep(r, x, lo, hi)
	for lag := range r {
		if lag < lo || lag > hi {
			if r[lag] != sentinel {
				t.Fatalf("n=%d [%d,%d]: lag %d outside the range was written", len(x), lo, hi, lag)
			}
			continue
		}
		if want := lagCorr(x, lag); !sameBits(r[lag], want) {
			t.Fatalf("n=%d [%d,%d]: lag %d = %x, lagCorr = %x", len(x), lo, hi, lag,
				math.Float64bits(r[lag]), math.Float64bits(want))
		}
	}
}

// randomWindow draws n samples whose magnitudes span several decades, so
// rounding differs between summation orders and a reordered sum shows.
func randomWindow(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return x
}

// The blocked sweep must equal one-lag lagCorr bit for bit at every
// window length, for ranges ending at the last lag with every remainder
// modulo lagBlock, and for arbitrary ranges.
func TestLagSweepMatchesLagCorr(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 8; n <= 300; n++ {
		x := randomWindow(rng, n)
		for rem := 0; rem < lagBlock; rem++ {
			// hi = n-1 with (hi-lo+1) mod lagBlock == rem.
			lo := n - (lagBlock*rng.Intn(n/lagBlock) + rem)
			if lo < 0 || lo > n-1 {
				continue
			}
			checkLagSweep(t, x, lo, n-1)
		}
		for k := 0; k < 4; k++ {
			lo, hi := rng.Intn(n), rng.Intn(n)
			checkLagSweep(t, x, lo, hi) // lo > hi: an empty range
		}
		checkLagSweep(t, x, 0, n-1)
	}
	// The estimator's own shape: 200 samples, lags 12..120.
	checkLagSweep(t, randomWindow(rng, 200), 12, 120)
}

// FuzzLagSweep feeds arbitrary float64 bit patterns (NaN, Inf, subnormal
// and huge values included) and arbitrary ranges through the blocked sweep
// and demands lagCorr's bits.
func FuzzLagSweep(f *testing.F) {
	encode := func(x []float64) []byte {
		b := make([]byte, 8*len(x))
		for i, v := range x {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	rng := rand.New(rand.NewSource(2))
	f.Add(encode(randomWindow(rng, 200)), uint16(12), uint16(120))
	f.Add(encode(randomWindow(rng, 100)), uint16(12), uint16(99))
	f.Add(encode(randomWindow(rng, 240)), uint16(7), uint16(72))
	f.Add(encode(randomWindow(rng, 9)), uint16(0), uint16(8))
	f.Add(encode([]float64{1, math.Inf(1), -2, math.NaN(), 3, 1e308, -1e308, 5e-324}), uint16(1), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint16) {
		n := len(data) / 8
		if n == 0 || n > 1024 {
			return
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkLagSweep(t, x, int(lo)%n, int(hi)%n)
	})
}

// refAutocorrHR is autocorrHR as it was before the blocked sweep: one
// lagCorr pass per lag, r0 summed afresh, the subharmonic recomputed.
// halved reports that the subharmonic check replaced the peak lag.
func refAutocorrHR(x []float64, fs, minHR, maxHR float64) (hr, periodicity float64, halved bool) {
	n := len(x)
	var r0 float64
	for _, v := range x {
		r0 += v * v
	}
	if r0 == 0 {
		return 0, 0, false
	}
	minLag := int(fs * 60 / maxHR)
	maxLag := int(fs * 60 / minHR)
	if maxLag >= n {
		maxLag = n - 1
	}
	if minLag < 1 {
		minLag = 1
	}
	bestLag, bestR := 0, 0.0
	for lag := minLag; lag <= maxLag; lag++ {
		r := lagCorr(x, lag) / r0
		if r > bestR {
			bestR = r
			bestLag = lag
		}
	}
	if bestLag == 0 {
		return 0, 0, false
	}
	if half := bestLag / 2; half >= minLag {
		if r := lagCorr(x, half) / r0; r > 0.85*bestR {
			bestLag = half
			bestR = r
			halved = true
		}
	}
	return 60 * fs / float64(bestLag), clamp01(bestR), halved
}

// randomPulseTrains draws 500 default-length windows of a sine pulse with
// a random period across the whole lag range, a random second harmonic
// (strong enough on some to take the subharmonic branch) and random
// white noise.
func randomPulseTrains() [][]float64 {
	rng := rand.New(rand.NewSource(3))
	trains := make([][]float64, 500)
	for k := range trains {
		x := make([]float64, 200)
		period := 12 + rng.Float64()*108
		h2 := rng.Float64() * 1.5
		noise := rng.Float64()
		for i := range x {
			ph := 2 * math.Pi * float64(i) / period
			x[i] = math.Sin(ph) + h2*math.Sin(2*ph) + noise*rng.NormFloat64()
		}
		trains[k] = x
	}
	return trains
}

// autocorrHR must return the one-lag reference's bits, including on
// pulse trains with a strong second harmonic, which take the
// subharmonic branch, and on trains whose sweep stops early.
func TestAutocorrHRMatchesReference(t *testing.T) {
	p := DefaultEstimator()
	sc := newLagScratch(200)
	maxLag := int(p.SampleRate * 60 / p.MinHeartRate)
	halves, pruned := 0, 0
	for trial, x := range randomPulseTrains() {
		sc.r[maxLag] = math.NaN() // left as is when the sweep stops early
		hr, q := autocorrHR(x, &sc, p.SampleRate, p.MinHeartRate, p.MaxHeartRate)
		wantHR, wantQ, halved := refAutocorrHR(x, p.SampleRate, p.MinHeartRate, p.MaxHeartRate)
		if !sameBits(hr, wantHR) || !sameBits(q, wantQ) {
			t.Fatalf("trial %d: got (%v, %v), reference (%v, %v)", trial, hr, q, wantHR, wantQ)
		}
		if halved {
			halves++
		}
		if math.IsNaN(sc.r[maxLag]) {
			pruned++
		}
	}
	if halves == 0 {
		t.Fatal("no trial took the subharmonic branch")
	}
	if pruned == 0 {
		t.Fatal("no trial stopped the sweep early")
	}
}

// The pruning rests on corrBound: at every lag it must bound the
// one-lag autocorrelation of that lag and of every later one.
func TestAutocorrBoundHolds(t *testing.T) {
	sc := newLagScratch(200)
	for trial, x := range randomPulseTrains() {
		n := len(x)
		sc.energies(x)
		tiny := float64(n) * math.SmallestNonzeroFloat64
		later := 0.0 // max |lagCorr| over the lags from lag on
		for lag := n - 1; lag >= 1; lag-- {
			later = math.Max(later, math.Abs(lagCorr(x, lag)))
			if b := corrBound(sc.head[:n+1], sc.tail[:n+1], lag, tiny); !(later <= b) {
				t.Fatalf("trial %d lag %d: |lagCorr| up to %v above the bound %v", trial, lag, later, b)
			}
		}
	}
}

// FuzzAutocorrHR feeds arbitrary float64 bit patterns (NaN, ±Inf, zero,
// subnormal and overflowing energies included) through the pruned search
// with the default gates and demands the one-lag reference's bits.
func FuzzAutocorrHR(f *testing.F) {
	encode := func(x []float64) []byte {
		b := make([]byte, 8*len(x))
		for i, v := range x {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	rng := rand.New(rand.NewSource(4))
	trains := randomPulseTrains()
	f.Add(encode(trains[0]))
	f.Add(encode(trains[1][:150]))
	f.Add(encode(randomWindow(rng, 200)))
	f.Add(encode(randomWindow(rng, 300)))
	f.Add(encode(make([]float64, 100)))
	small := make([]float64, 200) // squares underflow to subnormals or zero
	for i, v := range trains[2] {
		small[i] = v * 1e-160
	}
	f.Add(encode(small))
	// x[0]² underflows to zero, so the energies alone say lags 16 on
	// cannot reach the best of lags 12..15 (r[12] = x[29]*x[17]), yet
	// lag 29 = x[29]*x[0] beats it.
	under := make([]float64, 30)
	under[0], under[17], under[29] = 1e-170, 1e-171, 1e140
	f.Add(encode(under))
	f.Add(encode([]float64{1, math.Inf(1), -2, math.NaN(), 3, 1e308, -1e308, 5e-324, 0, 1, 2, 3, 4, 5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n < 8 || n > 300 {
			return
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		p := DefaultEstimator()
		sc := newLagScratch(n)
		hr, q := autocorrHR(x, &sc, p.SampleRate, p.MinHeartRate, p.MaxHeartRate)
		wantHR, wantQ, _ := refAutocorrHR(x, p.SampleRate, p.MinHeartRate, p.MaxHeartRate)
		if !sameBits(hr, wantHR) || !sameBits(q, wantQ) {
			t.Fatalf("n=%d: got (%x, %x), reference (%x, %x)", n,
				math.Float64bits(hr), math.Float64bits(q), math.Float64bits(wantHR), math.Float64bits(wantQ))
		}
	})
}

// pushWindow feeds one whole window and returns the estimate it closes.
func pushWindow(tb testing.TB, est *Estimator, buf []PlethSample) Estimate {
	for _, s := range buf[:len(buf)-1] {
		if _, ok := est.Push(s); ok {
			tb.Fatal("window closed early")
		}
	}
	e, ok := est.Push(buf[len(buf)-1])
	if !ok {
		tb.Fatal("window did not close")
	}
	return e
}

// syntheticWindow synthesizes one default 200-sample window at 78 bpm.
func syntheticWindow(est *Estimator) []PlethSample {
	synth := NewSynth(DefaultSynth(), sim.NewRNG(1))
	dt := synth.SampleInterval()
	buf := make([]PlethSample, est.WindowSamples())
	for i := range buf {
		buf[i] = synth.Next(sim.Time(i)*dt, dt, 78, 97)
	}
	return buf
}

// A Push that closes a window reuses the estimator's scratch: the whole
// window, analysis included, must not allocate. Neither may the
// oximeter's path, a window synthesized in place and analyzed there.
func TestAllocsEstimatorWindow(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	est := NewEstimator(DefaultEstimator())
	buf := syntheticWindow(est)
	if got := testing.AllocsPerRun(200, func() { pushWindow(t, est, buf) }); got != 0 {
		t.Fatalf("one estimator window allocates %v/op, want 0", got)
	}
	synth := NewSynth(DefaultSynth(), sim.NewRNG(1))
	dt := synth.SampleInterval()
	t0 := sim.Time(0)
	if got := testing.AllocsPerRun(200, func() {
		synth.Fill(buf, t0, dt, 78, 97)
		est.Analyze(buf)
		t0 += sim.Time(len(buf)) * dt
	}); got != 0 {
		t.Fatalf("one Fill + Analyze window allocates %v/op, want 0", got)
	}
}

// Analyze takes exactly one window.
func TestAnalyzeRejectsPartialWindow(t *testing.T) {
	est := NewEstimator(DefaultEstimator())
	defer func() {
		if recover() == nil {
			t.Fatal("Analyze accepted a window one sample short")
		}
	}()
	est.Analyze(make([]PlethSample, est.WindowSamples()-1))
}

// BenchmarkEstimatorWindow is one default 4 s, 50 Hz window of real
// synthesized pleth pushed through the estimator: 199 buffering pushes
// and the one that runs the analysis. A first window, outside the
// timing, allocates Push's buffer.
func BenchmarkEstimatorWindow(b *testing.B) {
	est := NewEstimator(DefaultEstimator())
	buf := syntheticWindow(est)
	pushWindow(b, est, buf)
	b.ReportAllocs()
	for b.Loop() {
		pushWindow(b, est, buf)
	}
}
