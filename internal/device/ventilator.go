package device

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/mednet"
	"repro/internal/physio"
	"repro/internal/sim"
)

// Ventilator is the mechanical ventilator of the paper's X-ray
// interoperability scenario (II.b). It runs a deterministic breath cycle
// and supports the two coordination protocols the paper contrasts:
//
//   - pause/resume actuator commands — the "let the X-ray machine pause
//     and restart the ventilator" protocol, with its deadly
//     forgot-to-restart failure mode;
//   - cycle-state transmission — the safer protocol: the ventilator
//     periodically publishes its cycle anchor and settings so the X-ray
//     machine can predict the end-of-exhale quiescent window itself.
//
// Capabilities:
//
//	sensor   cycle-anchor (ns)  — inhalation-onset anchor timestamp
//	sensor   breath-rate  (bpm) — current setting
//	event    state              — 1 running, 0 paused
//	actuator pause, resume
type Ventilator struct {
	conn    *core.DeviceConn
	k       *sim.Kernel
	cycle   physio.BreathCycle
	phase0  sim.Time // anchor: an inhalation onset instant
	paused  bool
	patient *physio.Patient // optional: anesthetized patient losing support on pause

	// Counters for experiments.
	Pauses  uint64
	Resumes uint64
}

// VentilatorDescriptor returns the ICE descriptor a ventilator announces.
func VentilatorDescriptor(id string) core.Descriptor {
	return core.Descriptor{
		ID: id, Kind: core.KindVentilator,
		Manufacturer: "Repro Medical", Model: "VENT-7", Version: "1.0",
		Capabilities: []core.Capability{
			{Name: "cycle-anchor", Class: core.ClassSensor, Unit: "ns", Criticality: 3},
			{Name: "breath-rate", Class: core.ClassSensor, Unit: "bpm", Criticality: 3},
			{Name: "state", Class: core.ClassEvent, Criticality: 3},
			{Name: "pause", Class: core.ClassActuator, Criticality: 3},
			{Name: "resume", Class: core.ClassActuator, Criticality: 3},
		},
	}
}

// NewVentilator connects a ventilator. patient may be nil for bench-only
// use; when set, pausing removes the patient's ventilatory support.
func NewVentilator(k *sim.Kernel, net *mednet.Network, id string, cycle physio.BreathCycle, patient *physio.Patient, cfg core.ConnectConfig) (*Ventilator, error) {
	if err := cycle.Validate(); err != nil {
		return nil, err
	}
	conn, err := core.Connect(k, net, VentilatorDescriptor(id), cfg)
	if err != nil {
		return nil, err
	}
	v := &Ventilator{conn: conn, k: k, cycle: cycle, phase0: k.Now(), patient: patient}
	conn.Handle("pause", func(map[string]float64) error { return v.Pause() })
	conn.Handle("resume", func(map[string]float64) error { v.Resume(); return nil })
	// State transmission: publish the cycle anchor every second so a
	// subscriber always has a fresh prediction basis.
	k.Every(time.Second, func(now sim.Time) {
		if !conn.Connected() || v.paused {
			return
		}
		conn.Publish("cycle-anchor", float64(v.phase0), true, 1, now)
		conn.Publish("breath-rate", v.cycle.RatePerMin, true, 1, now)
	})
	return v, nil
}

// MustNewVentilator is NewVentilator, panicking on error.
func MustNewVentilator(k *sim.Kernel, net *mednet.Network, id string, cycle physio.BreathCycle, patient *physio.Patient, cfg core.ConnectConfig) *Ventilator {
	v, err := NewVentilator(k, net, id, cycle, patient, cfg)
	if err != nil {
		panic(err)
	}
	return v
}

// Conn exposes the ICE connection.
func (v *Ventilator) Conn() *core.DeviceConn { return v.conn }

// Cycle returns the active breath settings.
func (v *Ventilator) Cycle() physio.BreathCycle { return v.cycle }

// Paused reports whether ventilation is suspended.
func (v *Ventilator) Paused() bool { return v.paused }

// Pause suspends ventilation at the next end-of-exhale (pausing mid-breath
// would trap volume). Returns an error if already paused.
func (v *Ventilator) Pause() error {
	if v.paused {
		return errors.New("device: ventilator already paused")
	}
	v.paused = true
	v.Pauses++
	if v.conn.Connected() {
		v.conn.Publish("state", 0, true, 1, v.k.Now())
	}
	return nil
}

// Resume restarts ventilation, re-anchoring the cycle at the current
// instant (a fresh inhalation begins immediately).
func (v *Ventilator) Resume() {
	if !v.paused {
		return
	}
	v.paused = false
	v.Resumes++
	v.phase0 = v.k.Now()
	if v.conn.Connected() {
		v.conn.Publish("state", 1, true, 1, v.k.Now())
	}
}

// VentilationScale implements VentSupport.
func (v *Ventilator) VentilationScale() float64 {
	if v.paused {
		return 0
	}
	return 1
}

// PhaseAt reports the true breath phase at time t — the physical chest
// motion the X-ray image quality depends on. While paused the chest is
// still, so every instant is quiescent.
func (v *Ventilator) PhaseAt(t sim.Time) physio.BreathPhase {
	if v.paused {
		return physio.PhaseQuiescent
	}
	return v.cycle.PhaseAt(t, v.phase0)
}

// ChestStillDuring reports whether the chest is motionless over the whole
// exposure interval [start, end].
func (v *Ventilator) ChestStillDuring(start, end sim.Time) bool {
	if v.paused {
		return true
	}
	for t := start; t <= end; t += 10 * sim.Millisecond {
		if v.cycle.PhaseAt(t, v.phase0) != physio.PhaseQuiescent {
			return false
		}
	}
	return true
}

// Anchor reports the current cycle anchor (for in-sim oracles; networked
// consumers get it via the cycle-anchor topic).
func (v *Ventilator) Anchor() sim.Time { return v.phase0 }
