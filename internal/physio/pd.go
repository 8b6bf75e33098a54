package physio

import (
	"errors"
	"math"
)

// PDParams are pharmacodynamic parameters linking effect-site opioid
// concentration to respiratory depression via a sigmoidal Emax model.
type PDParams struct {
	Ke0   float64 // plasma<->effect-site equilibration rate (1/min)
	EC50  float64 // effect-site concentration of half-maximal effect (mg/L)
	Gamma float64 // Hill coefficient (sigmoid steepness)
	Emax  float64 // maximal fractional depression of respiratory drive [0,1]
}

// DefaultMorphinePD returns nominal opioid respiratory-depression dynamics.
// True morphine CNS equilibration is very slow (ke0 ~0.005-0.02/min); we
// compress the time axis (ke0 0.08/min, ~9 min half-time) so that 2 h
// scenarios exercise the full onset/offset dynamics, and place the
// respiratory-depression EC50 well above the analgesic range so that
// therapeutic dosing is safe and only misprogramming/overdose reaches
// dangerous depression — the qualitative separation the PCA safety
// argument rests on.
func DefaultMorphinePD() PDParams {
	return PDParams{Ke0: 0.08, EC50: 0.25, Gamma: 2.5, Emax: 0.92}
}

// Validate reports an error for unusable parameters.
func (p PDParams) Validate() error {
	if p.Ke0 <= 0 {
		return errors.New("physio: ke0 must be positive")
	}
	if p.EC50 <= 0 {
		return errors.New("physio: EC50 must be positive")
	}
	if p.Gamma <= 0 {
		return errors.New("physio: gamma must be positive")
	}
	if p.Emax < 0 || p.Emax > 1 {
		return errors.New("physio: Emax must lie in [0,1]")
	}
	return nil
}

// PD tracks the effect-site concentration and maps it to a fractional
// depression of respiratory drive in [0, Emax].
type PD struct {
	p  PDParams
	ce float64 // effect-site concentration, mg/L
}

// NewPD returns an effect-site model at zero concentration.
func NewPD(p PDParams) (*PD, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &PD{p: p}, nil
}

// MustPD is NewPD for known-good parameters.
func MustPD(p PDParams) *PD {
	m, err := NewPD(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the model parameters.
func (m *PD) Params() PDParams { return m.p }

// Reset returns the effect site to zero concentration, keeping the
// parameters.
func (m *PD) Reset() { m.ce = 0 }

// EffectSite reports the current effect-site concentration (mg/L).
func (m *PD) EffectSite() float64 { return m.ce }

// Step advances the effect-site concentration toward the plasma
// concentration cp over dtMinutes using the analytic first-order solution,
// which is exact for piecewise-constant cp.
func (m *PD) Step(dtMinutes, cp float64) {
	if dtMinutes <= 0 {
		panic("physio: non-positive PD step")
	}
	alpha := math.Exp(-m.p.Ke0 * dtMinutes)
	m.ce = cp + (m.ce-cp)*alpha
}

// Depression reports the fractional respiratory-drive depression in
// [0, Emax] at the current effect-site concentration.
func (m *PD) Depression() float64 {
	return m.depressionAt(m.ce)
}

func (m *PD) depressionAt(ce float64) float64 {
	if ce <= 0 || math.IsNaN(ce) {
		return 0
	}
	// Compute the Hill curve in ratio form to avoid overflow for
	// concentrations astronomically above EC50.
	rg := math.Pow(ce/m.p.EC50, m.p.Gamma)
	if math.IsInf(rg, 1) {
		return m.p.Emax
	}
	return m.p.Emax * rg / (1 + rg)
}

// ConcentrationFor inverts the Hill curve: the effect-site concentration
// producing fractional depression e. Returns +Inf for e >= Emax.
func (m *PD) ConcentrationFor(e float64) float64 {
	if e <= 0 {
		return 0
	}
	if e >= m.p.Emax {
		return math.Inf(1)
	}
	r := e / (m.p.Emax - e)
	return m.p.EC50 * math.Pow(r, 1/m.p.Gamma)
}
