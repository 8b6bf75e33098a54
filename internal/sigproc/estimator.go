package sigproc

import (
	"math"

	"repro/internal/sim"
)

// Estimate is the oximeter's output: processed heart rate and SpO2 with a
// validity flag. Invalid estimates correspond to windows the signal-quality
// check rejected (artifact, dropout, non-physiologic ratio).
type Estimate struct {
	T         sim.Time // time of the window end
	HeartRate float64  // beats/min
	SpO2      float64  // percent
	Valid     bool
	Quality   float64 // [0,1] signal-quality index
}

// EstimatorParams size the processing window. The window length is the
// dominant component of the "signal processing time" delay in Figure 1:
// an estimate describes the patient as of half a window ago at best.
type EstimatorParams struct {
	SampleRate   float64  // Hz, must match the synthesizer
	Window       sim.Time // analysis window length (typ. 4 s)
	MinQuality   float64  // below this, the estimate is flagged invalid
	MaxHeartRate float64  // plausibility gate, beats/min
	MinHeartRate float64
}

// DefaultEstimator returns clinically typical processing parameters.
func DefaultEstimator() EstimatorParams {
	return EstimatorParams{
		SampleRate:   50,
		Window:       4 * sim.Second,
		MinQuality:   0.25,
		MaxHeartRate: 240,
		MinHeartRate: 25,
	}
}

// Estimator consumes pleth samples and emits one Estimate per window.
type Estimator struct {
	p       EstimatorParams
	samples []PlethSample // Push's buffer, allocated by its first call
	perWin  int
	ac      []float64 // zero-mean IR scratch, reused across windows
	lags    lagScratch
}

// NewEstimator returns an estimator sized for the given parameters.
func NewEstimator(p EstimatorParams) *Estimator {
	if p.SampleRate <= 0 || p.Window <= 0 {
		panic("sigproc: estimator needs positive rate and window")
	}
	perWin := int(p.Window.Seconds() * p.SampleRate)
	if perWin < 8 {
		panic("sigproc: window too short for analysis")
	}
	return &Estimator{
		p:      p,
		perWin: perWin,
		ac:     make([]float64, perWin),
		lags:   newLagScratch(perWin),
	}
}

// WindowSamples reports how many samples form one analysis window.
func (e *Estimator) WindowSamples() int { return e.perWin }

// ProcessingDelay reports the intrinsic latency of the estimator: a full
// window must elapse before the first estimate describing its contents.
func (e *Estimator) ProcessingDelay() sim.Time { return e.p.Window }

// Push adds one sample. When a full window has accumulated it is analyzed,
// the buffer resets, and the estimate is returned with ok=true.
func (e *Estimator) Push(s PlethSample) (Estimate, bool) {
	if e.samples == nil {
		e.samples = make([]PlethSample, 0, e.perWin)
	}
	e.samples = append(e.samples, s)
	if len(e.samples) < e.perWin {
		return Estimate{}, false
	}
	est := e.Analyze(e.samples)
	e.samples = e.samples[:0]
	return est, true
}

// Analyze runs ratio-of-ratios SpO2 estimation and autocorrelation-based
// heart-rate detection over one whole window, len(window) ==
// WindowSamples(). It leaves the samples Push has buffered alone.
func (e *Estimator) Analyze(window []PlethSample) Estimate {
	n := len(window)
	if n != e.perWin {
		panic("sigproc: Analyze needs exactly one window of samples")
	}
	endT := window[n-1].T

	// Channel means (DC) and zero-mean AC series.
	var dcR, dcI float64
	for _, s := range window {
		dcR += s.Red
		dcI += s.IR
	}
	dcR /= float64(n)
	dcI /= float64(n)
	if dcR < 0.1 || dcI < 0.1 {
		// Probe off: no light path.
		return Estimate{T: endT, Valid: false, Quality: 0}
	}
	// The red channel's AC series is only ever reduced to its RMS, so it
	// is accumulated scalar-wise; the IR series feeds the autocorrelation
	// and lands in a reused scratch slice. Both changes preserve the
	// original floating-point operation order bit for bit.
	acI := e.ac[:n]
	var rmsR, energyI float64
	for i, s := range window {
		ar := s.Red - dcR
		ai := s.IR - dcI
		acI[i] = ai
		rmsR += ar * ar
		energyI += ai * ai
	}
	rmsR = math.Sqrt(rmsR / float64(n))
	rmsI := math.Sqrt(energyI / float64(n))
	if rmsI == 0 {
		return Estimate{T: endT, Valid: false, Quality: 0}
	}

	ratio := (rmsR / dcR) / (rmsI / dcI)
	spo2 := SpO2ForRatio(ratio)

	// Heart rate by autocorrelation peak of the IR AC component.
	hr, periodicity := autocorrHR(acI, &e.lags, e.p.SampleRate, e.p.MinHeartRate, e.p.MaxHeartRate)

	quality := periodicity
	valid := quality >= e.p.MinQuality && hr >= e.p.MinHeartRate && hr <= e.p.MaxHeartRate &&
		spo2 >= 40 && spo2 <= 100
	return Estimate{T: endT, HeartRate: hr, SpO2: spo2, Valid: valid, Quality: quality}
}

// lagScratch is autocorrHR's working memory for windows of up to n
// samples, reused across windows.
type lagScratch struct {
	r    []float64 // r[lag]: autocorrelation at lag
	head []float64 // head[m]: energy of x[:m], summed in ascending order
	tail []float64 // tail[l]: energy of x[l:], summed in descending order
}

func newLagScratch(n int) lagScratch {
	return lagScratch{
		r:    make([]float64, n), // lags run at most to n-1
		head: make([]float64, n+1),
		tail: make([]float64, n+1),
	}
}

// energies fills head[:len(x)+1] and tail[:len(x)+1] for x and returns
// x's energy, its zero-lag autocorrelation: head[len(x)], the same terms
// the estimator sums for its IR RMS, in the same order.
func (s *lagScratch) energies(x []float64) float64 {
	n := len(x)
	head, tail := s.head[:n+1], s.tail[:n+1]
	var h, t float64
	head[0], tail[n] = 0, 0
	for i, v := range x {
		h += v * v
		head[i+1] = h
		j := n - 1 - i
		t += x[j] * x[j]
		tail[j] = t
	}
	return h
}

// pruneMargin is the relative slack corrBound adds to the Cauchy–Schwarz
// bound. The relative rounding it covers, about 2n·2⁻⁵³ over an n-sample
// window, stays below it up to maxPruneWindow samples; longer windows
// never prune.
const (
	pruneMargin    = 1e-9
	maxPruneWindow = 1 << 20
)

// corrBound bounds |lagCorr(x, l)| for every l >= lag from x's energies
// (head and tail as filled by energies, len(x)+1 entries each).
//
// Cauchy–Schwarz gives |r[l]| <= sqrt(head[n-l] * tail[l]) for the exact
// sums: r[l] pairs x[i+l] with x[i] for i < n-l. Both energies only
// shrink as l grows, so the bound at lag covers every later lag. The
// computed sums add non-negative terms, so each is within a relative
// n·2⁻⁵³ of its exact value, and pruneMargin covers that. A square or
// product that underflows loses up to half the smallest subnormal
// instead, so tiny, n smallest subnormals, is added to each energy and
// to the bound. The square roots are taken apart so that their product
// cannot underflow.
func corrBound(head, tail []float64, lag int, tiny float64) float64 {
	n := len(head) - 1
	return math.Sqrt(head[n-lag]+tiny)*math.Sqrt(tail[lag]+tiny)*(1+pruneMargin) + tiny
}

// autocorrHR finds the dominant periodicity in x and converts it to
// beats/min, using s as scratch. The returned periodicity in [0,1] is the
// normalized autocorrelation at the detected lag — a natural
// signal-quality index that collapses under uncorrelated artifact noise.
//
// The argmax runs interleaved with the sweep, one block of lagBlock lags
// at a time in ascending order, and stops before a block once
// corrBound(lag) < bestR*r0: then every later lag l has
// lagCorr(x, l) < bestR*r0 exactly, so r[l]/r0 rounds to at most bestR
// and the strict > below would never take it. The result is the full
// sweep's, bit for bit; the sweep just skips lags that cannot win. A
// clean periodic window stops early, while a noisy, dropout or motion
// window keeps a weak best and sweeps every lag. NaN or Inf energy never
// prunes, since every comparison with NaN is false and an Inf bound is
// never below the best. The subharmonic check reads r[bestLag/2], a lag
// below bestLag, which the sweep has always computed.
func autocorrHR(x []float64, s *lagScratch, fs, minHR, maxHR float64) (hr, periodicity float64) {
	r0 := s.energies(x)
	if r0 == 0 {
		return 0, 0
	}
	n := len(x)
	minLag := int(fs * 60 / maxHR)
	maxLag := int(fs * 60 / minHR)
	if maxLag >= n {
		maxLag = n - 1
	}
	if minLag < 1 {
		minLag = 1
	}
	r, head, tail := s.r, s.head[:n+1], s.tail[:n+1]
	prune := n <= maxPruneWindow
	tiny := float64(n) * math.SmallestNonzeroFloat64
	bestLag, bestR := 0, 0.0
	for lag := minLag; lag <= maxLag; lag += lagBlock {
		if prune && bestR > 0 && corrBound(head, tail, lag, tiny) < bestR*r0 {
			break
		}
		hi := min(lag+lagBlock-1, maxLag)
		lagSweep(r, x, lag, hi)
		for l := lag; l <= hi; l++ {
			if v := r[l] / r0; v > bestR {
				bestR = v
				bestLag = l
			}
		}
	}
	if bestLag == 0 {
		return 0, 0
	}
	// Refine: if lag/2 also scores nearly as high, the true period is the
	// half (we latched onto a subharmonic).
	if half := bestLag / 2; half >= minLag {
		if v := r[half] / r0; v > 0.85*bestR {
			bestLag = half
			bestR = v
		}
	}
	return 60 * fs / float64(bestLag), clamp01(bestR)
}

// lagBlock is how many adjacent lags lagSweep computes per pass over x.
// Four independent accumulators hide the add latency of lagCorr's one
// serial chain and leave the loop bound by multiply/add throughput;
// eight spill registers on amd64 and measure no faster. The loop body
// below is unrolled for exactly four.
const lagBlock = 4

// lagSweep sets r[lag] = lagCorr(x, lag) for every lag in [lo, hi],
// bit for bit, computing lagBlock adjacent lags per pass over x. Each lag
// keeps its own accumulator, adds its products in lagCorr's ascending
// order and in the same r += y*v form (so fused and unfused codegen both
// agree with lagCorr), then finishes its own tail terms in order. lagCorr
// handles the lags left over after the last full block. hi must be below
// len(x) and len(r).
func lagSweep(r, x []float64, lo, hi int) {
	n := len(x)
	lag := lo
	for ; lag+lagBlock-1 <= hi; lag += lagBlock {
		// m terms are common to all four lags; lag+k has 3-k more.
		m := n - lag - (lagBlock - 1)
		v0 := x[:m]
		y0 := x[lag:][:len(v0)]
		y1 := x[lag+1:][:len(v0)]
		y2 := x[lag+2:][:len(v0)]
		y3 := x[lag+3:][:len(v0)]
		var r0, r1, r2, r3 float64
		for i, v := range v0 {
			r0 += y0[i] * v
			r1 += y1[i] * v
			r2 += y2[i] * v
			r3 += y3[i] * v
		}
		r[lag] = lagCorrFrom(r0, x, lag, m)
		r[lag+1] = lagCorrFrom(r1, x, lag+1, m)
		r[lag+2] = lagCorrFrom(r2, x, lag+2, m)
		r[lag+3] = r3
	}
	for ; lag <= hi; lag++ {
		r[lag] = lagCorr(x, lag)
	}
}

// lagCorr is the raw autocorrelation sum at one lag: the reference that
// lagSweep reproduces bit for bit, and its path for the lags left over
// after the last full block. Ranging over the tail drops its bounds
// check, while the products and their accumulation order stay exactly
// those of the textbook x[i]*x[i-lag] formulation.
func lagCorr(x []float64, lag int) float64 {
	var r float64
	tail := x[lag:]
	for i, v := range tail {
		r += v * x[i]
	}
	return r
}

// lagCorrFrom continues lagCorr's sum r from term i0 on, in its order.
func lagCorrFrom(r float64, x []float64, lag, i0 int) float64 {
	tail := x[lag:]
	for i := i0; i < len(tail); i++ {
		r += tail[i] * x[i]
	}
	return r
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
