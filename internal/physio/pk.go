// Package physio implements the patient models the paper's challenge (h)
// calls for: pharmacokinetic drug absorption (two-compartment, after the
// morphine model of Mazoit et al. cited by the paper), pharmacodynamic
// effect on respiration, vital-sign generation, the breathing cycle needed
// by the X-ray/ventilator scenario, and population variability.
//
// All models advance on the virtual clock in fixed steps and are
// deterministic given their parameters and RNG seed.
package physio

import (
	"errors"
	"fmt"
	"math"
)

// PKParams are two-compartment pharmacokinetic parameters. Units: volumes
// in liters, rate constants in 1/min. The defaults approximate published
// morphine kinetics for a 70 kg adult (central volume ~17.8 L, terminal
// half-life on the order of 2-3 h).
type PKParams struct {
	V1  float64 // central compartment volume (L)
	V2  float64 // peripheral compartment volume (L)
	K10 float64 // elimination rate from central (1/min)
	K12 float64 // central -> peripheral (1/min)
	K21 float64 // peripheral -> central (1/min)
}

// DefaultMorphinePK returns nominal adult morphine parameters.
func DefaultMorphinePK() PKParams {
	return PKParams{V1: 17.8, V2: 80.0, K10: 0.07, K12: 0.12, K21: 0.03}
}

// Validate reports an error for physically meaningless parameters.
func (p PKParams) Validate() error {
	if p.V1 <= 0 || p.V2 <= 0 {
		return errors.New("physio: compartment volumes must be positive")
	}
	if p.K10 < 0 || p.K12 < 0 || p.K21 < 0 {
		return errors.New("physio: rate constants must be nonnegative")
	}
	return nil
}

// PK is the two-compartment drug-amount model:
//
//	dA1/dt = u(t) - (k10+k12)·A1 + k21·A2
//	dA2/dt = k12·A1 - k21·A2
//
// where A1, A2 are drug amounts (mg) in the central and peripheral
// compartments and u(t) is the infusion rate (mg/min). Plasma
// concentration is A1/V1 (mg/L). Integration is classical RK4, which at
// the 1 s steps used by the simulations is accurate to well below clinical
// relevance.
type PK struct {
	p          PKParams
	a1, a2     float64 // compartment amounts, mg
	eliminated float64 // cumulative eliminated mass, mg
	infused    float64 // cumulative infused mass, mg
}

// NewPK returns a drug-free patient compartment model.
func NewPK(p PKParams) (*PK, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &PK{p: p}, nil
}

// MustPK is NewPK for known-good (e.g. default) parameters.
func MustPK(p PKParams) *PK {
	m, err := NewPK(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the model parameters.
func (m *PK) Params() PKParams { return m.p }

// Reset returns the model to the drug-free initial state, keeping its
// parameters.
func (m *PK) Reset() {
	m.a1 = 0
	m.a2 = 0
	m.eliminated = 0
	m.infused = 0
}

// Concentration reports the central plasma concentration in mg/L.
func (m *PK) Concentration() float64 { return m.a1 / m.p.V1 }

// Amounts reports compartment drug amounts in mg.
func (m *PK) Amounts() (central, peripheral float64) { return m.a1, m.a2 }

// TotalInfused reports the cumulative drug mass delivered (mg).
func (m *PK) TotalInfused() float64 { return m.infused }

// TotalEliminated reports the cumulative drug mass eliminated (mg).
func (m *PK) TotalEliminated() float64 { return m.eliminated }

// Bolus adds an instantaneous dose (mg) to the central compartment,
// modeling an IV push such as a PCA demand dose.
func (m *PK) Bolus(mg float64) {
	if mg < 0 {
		panic(fmt.Sprintf("physio: negative bolus %f", mg))
	}
	m.a1 += mg
	m.infused += mg
}

// Step advances the model by dtMinutes with a constant infusion rate
// u (mg/min) over the step. dtMinutes must be positive and small relative
// to the fastest time constant; callers use steps of at most a few seconds.
func (m *PK) Step(dtMinutes, u float64) {
	if dtMinutes <= 0 {
		panic("physio: non-positive PK step")
	}
	if u < 0 {
		u = 0
	}
	k10, k12, k21 := m.p.K10, m.p.K12, m.p.K21
	f := func(a1, a2 float64) (d1, d2 float64) {
		d1 = u - (k10+k12)*a1 + k21*a2
		d2 = k12*a1 - k21*a2
		return
	}
	h := dtMinutes
	a1, a2 := m.a1, m.a2
	k1a, k1b := f(a1, a2)
	k2a, k2b := f(a1+h/2*k1a, a2+h/2*k1b)
	k3a, k3b := f(a1+h/2*k2a, a2+h/2*k2b)
	k4a, k4b := f(a1+h*k3a, a2+h*k3b)
	na1 := a1 + h/6*(k1a+2*k2a+2*k3a+k4a)
	na2 := a2 + h/6*(k1b+2*k2b+2*k3b+k4b)
	if na1 < 0 {
		na1 = 0
	}
	if na2 < 0 {
		na2 = 0
	}
	// Mass bookkeeping: infused mass this step, eliminated inferred from
	// conservation so the invariant infused == stored + eliminated holds
	// to integration accuracy.
	m.infused += u * h
	m.eliminated += (m.a1 + m.a2 + u*h) - (na1 + na2)
	m.a1, m.a2 = na1, na2
}

// HalfLifeMinutes estimates the terminal elimination half-life from the
// slow hybrid rate constant of the two-compartment system.
func (m *PK) HalfLifeMinutes() float64 {
	k10, k12, k21 := m.p.K10, m.p.K12, m.p.K21
	sum := k10 + k12 + k21
	disc := sum*sum - 4*k10*k21
	if disc < 0 {
		disc = 0
	}
	beta := (sum - math.Sqrt(disc)) / 2
	if beta <= 0 {
		return math.Inf(1)
	}
	return math.Ln2 / beta
}
