// Package device implements the simulated medical devices the paper's
// scenarios compose: a PCA infusion pump, a pulse oximeter, a ventilator,
// an X-ray machine, a multi-parameter patient monitor, a hospital bed (the
// Class I context device of the mixed-criticality scenario) and a
// capnograph. Each device owns a core.DeviceConn, announces a capability
// descriptor, publishes observations on the ICE bus, and executes actuator
// commands — exactly the integration surface challenge (k) calls for.
//
// Devices observe and affect the patient only through their transducers;
// ground-truth physiology lives in internal/physio and is advanced by the
// Ward runner below.
package device

import (
	"repro/internal/physio"
	"repro/internal/sim"
)

// DrugSource reports the drug flow a device is currently delivering.
// The PCA pump implements it; the Ward polls it when stepping physiology.
type DrugSource interface {
	// CurrentRateMgPerMin returns the instantaneous infusion rate.
	CurrentRateMgPerMin() float64
	// TakePendingBolusMg returns and clears any bolus mass delivered
	// since the last call.
	TakePendingBolusMg() float64
}

// VentSupport reports the mechanical ventilation scale a device provides.
// The ventilator implements it.
type VentSupport interface {
	// VentilationScale is 1 while ventilating, 0 while paused.
	VentilationScale() float64
}

// Ward advances the shared patient physiology from the device layer's
// inputs. It is the glue between the cyber side (devices) and the physical
// side (the patient) — the "patient model" box of Figure 1.
type Ward struct {
	Patient *physio.Patient
	k       *sim.Kernel
	drug    []DrugSource
	vent    []VentSupport
	tick    *sim.Ticker
	Trace   *sim.Trace // optional: records ground truth each step

	// Interned series handles for Trace; the ward samples eight series
	// every step, so resolving names once keeps the hot path off the map.
	interned                                                   *sim.Trace // trace the handles below belong to
	sSpO2, sHR, sRR, sPlasma, sDepress, sPain, sRate, sExtVent sim.SeriesID
}

// NewWard starts stepping the patient every step interval.
func NewWard(k *sim.Kernel, p *physio.Patient, step sim.Time) *Ward {
	w := &Ward{Patient: p, k: k}
	w.tick = k.Every(step.Duration(), func(now sim.Time) { w.step(now, step) })
	return w
}

// AttachDrugSource registers an infusion source (e.g. the PCA pump).
func (w *Ward) AttachDrugSource(s DrugSource) { w.drug = append(w.drug, s) }

// AttachVentSupport registers a ventilation provider. With at least one
// provider attached, the patient is treated as anesthetized: effective
// support is the maximum over providers (a second ventilator can cover).
func (w *Ward) AttachVentSupport(v VentSupport) { w.vent = append(w.vent, v) }

// Stop halts physiology stepping.
func (w *Ward) Stop() { w.tick.Stop() }

func (w *Ward) step(now sim.Time, dt sim.Time) {
	rate := 0.0
	for _, s := range w.drug {
		rate += s.CurrentRateMgPerMin()
		if b := s.TakePendingBolusMg(); b > 0 {
			w.Patient.Bolus(b)
		}
	}
	if len(w.vent) > 0 {
		scale := 0.0
		for _, v := range w.vent {
			if s := v.VentilationScale(); s > scale {
				scale = s
			}
		}
		w.Patient.SetExternalVentilation(scale)
	}
	w.Patient.Step(dt, rate)
	if w.Trace != nil {
		if w.interned != w.Trace {
			w.intern()
		}
		v := w.Patient.Vitals()
		w.Trace.RecordID(w.sSpO2, now, v.SpO2)
		w.Trace.RecordID(w.sHR, now, v.HeartRate)
		w.Trace.RecordID(w.sRR, now, v.RespRate)
		w.Trace.RecordID(w.sPlasma, now, v.DrugPlasma)
		w.Trace.RecordID(w.sDepress, now, v.Depression)
		w.Trace.RecordID(w.sPain, now, v.Pain)
		w.Trace.RecordID(w.sRate, now, rate)
		w.Trace.RecordID(w.sExtVent, now, w.Patient.ExternalVentilation())
	}
}

// intern resolves the ground-truth series handles for the current Trace.
// Lazy so that assigning the exported Trace field keeps working.
func (w *Ward) intern() {
	w.interned = w.Trace
	w.sSpO2 = w.Trace.SeriesID("true/spo2")
	w.sHR = w.Trace.SeriesID("true/hr")
	w.sRR = w.Trace.SeriesID("true/rr")
	w.sPlasma = w.Trace.SeriesID("true/drug-plasma")
	w.sDepress = w.Trace.SeriesID("true/depression")
	w.sPain = w.Trace.SeriesID("true/pain")
	w.sRate = w.Trace.SeriesID("true/infusion-rate")
	w.sExtVent = w.Trace.SeriesID("true/extvent")
}
