package closedloop

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/physio"
	"repro/internal/sim"
)

// SyncProtocol selects how the X-ray coordinates with the ventilator —
// the three alternatives the paper discusses for the II.b scenario.
type SyncProtocol int

const (
	// ProtocolManual images without any coordination: the baseline
	// current practice, succeeding only by luck.
	ProtocolManual SyncProtocol = iota
	// ProtocolPauseRestart pauses the ventilator, shoots, and restarts
	// it — simple, but a lost resume command leaves the patient
	// unventilated (the fatal failure mode the paper recounts).
	ProtocolPauseRestart
	// ProtocolStateSync consumes the ventilator's transmitted cycle state
	// and fires inside the predicted end-of-exhale quiescent window,
	// accounting for transmission delay — the paper's "safer alternative,
	// although presenting tighter timing constraints".
	ProtocolStateSync
)

// String names the protocol.
func (p SyncProtocol) String() string {
	switch p {
	case ProtocolManual:
		return "manual"
	case ProtocolPauseRestart:
		return "pause-restart"
	case ProtocolStateSync:
		return "state-sync"
	default:
		return "unknown"
	}
}

// XRaySyncConfig configures the synchronizer app.
type XRaySyncConfig struct {
	XRayID       string
	VentilatorID string
	Protocol     SyncProtocol
	Exposure     sim.Time // exposure duration
	// Cycle is the ventilator's breath program. A production system would
	// transfer all of it in the announcement; here the rate arrives live
	// on the bus and the shape parameters come from the device profile.
	Cycle physio.BreathCycle
	// DelayBound is the synchronizer's assumed upper bound on one-way
	// command latency. The state-sync protocol schedules shots so the
	// exposure fits the window even if the command takes this long.
	DelayBound time.Duration
	// PauseSettle is how long after a pause acknowledgement the chest is
	// assumed still (pause-restart protocol).
	PauseSettle time.Duration
	// ResumeRetries controls whether a lost resume is retried. The paper's
	// fatal scenario corresponds to 0 retries and no acknowledgement check.
	ResumeRetries  int
	CommandTimeout time.Duration
}

// DefaultXRaySyncConfig returns the E2 experiment configuration.
func DefaultXRaySyncConfig(xrayID, ventID string, proto SyncProtocol) XRaySyncConfig {
	return XRaySyncConfig{
		XRayID:         xrayID,
		VentilatorID:   ventID,
		Protocol:       proto,
		Exposure:       100 * sim.Millisecond,
		Cycle:          physio.DefaultBreathCycle(),
		DelayBound:     50 * time.Millisecond,
		PauseSettle:    2 * time.Second,
		ResumeRetries:  3,
		CommandTimeout: time.Second,
	}
}

// Validate reports an error for unusable configuration.
func (c XRaySyncConfig) Validate() error {
	if c.XRayID == "" || c.VentilatorID == "" {
		return errors.New("closedloop: synchronizer needs device IDs")
	}
	if c.Exposure <= 0 {
		return errors.New("closedloop: non-positive exposure")
	}
	if c.DelayBound < 0 || c.PauseSettle < 0 || c.ResumeRetries < 0 {
		return errors.New("closedloop: negative timing parameter")
	}
	if c.CommandTimeout <= 0 {
		return errors.New("closedloop: command timeout must be positive")
	}
	return c.Cycle.Validate()
}

// XRaySync coordinates chest imaging with ventilation over the ICE.
type XRaySync struct {
	cfg XRaySyncConfig
	mgr *core.Manager
	k   *sim.Kernel

	anchor     sim.Time // latest cycle anchor from the bus
	anchorSeen bool
	rate       float64

	// Counters for experiments.
	Requests       uint64
	ShotsCommanded uint64
	Deferred       uint64 // state-sync: no usable window, request dropped
	ResumeFailures uint64 // pause-restart: resume never acknowledged
}

// NewXRaySync attaches the synchronizer to the manager's bus.
func NewXRaySync(k *sim.Kernel, mgr *core.Manager, cfg XRaySyncConfig) (*XRaySync, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &XRaySync{cfg: cfg, mgr: mgr, k: k, rate: cfg.Cycle.RatePerMin}
	mgr.Subscribe(core.Topic(cfg.VentilatorID, "cycle-anchor"), func(_ string, d core.Datum) {
		if d.Valid {
			s.anchor = sim.Time(d.Value)
			s.anchorSeen = true
		}
	})
	mgr.Subscribe(core.Topic(cfg.VentilatorID, "breath-rate"), func(_ string, d core.Datum) {
		if d.Valid && d.Value > 0 {
			s.rate = d.Value
		}
	})
	return s, nil
}

// MustNewXRaySync is NewXRaySync, panicking on error.
func MustNewXRaySync(k *sim.Kernel, mgr *core.Manager, cfg XRaySyncConfig) *XRaySync {
	s, err := NewXRaySync(k, mgr, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// RequestImage initiates one chest image using the configured protocol.
func (s *XRaySync) RequestImage() {
	s.Requests++
	switch s.cfg.Protocol {
	case ProtocolManual:
		s.shoot()
	case ProtocolPauseRestart:
		s.pauseShootResume()
	case ProtocolStateSync:
		s.scheduleInWindow()
	}
}

// runShoot and runRequestImage adapt the synchronizer's entry points to
// the kernel's closure-free scheduling API: both fire once per imaging
// request and need no per-event state beyond the synchronizer itself.
func runShoot(arg any)        { arg.(*XRaySync).shoot() }
func runRequestImage(arg any) { arg.(*XRaySync).RequestImage() }

func (s *XRaySync) shoot() {
	s.ShotsCommanded++
	s.mgr.SendCommand(s.cfg.XRayID, "shoot",
		map[string]float64{"exposure-ms": float64(s.cfg.Exposure / sim.Millisecond)},
		s.cfg.CommandTimeout, nil)
}

func (s *XRaySync) pauseShootResume() {
	s.mgr.SendCommand(s.cfg.VentilatorID, "pause", nil, s.cfg.CommandTimeout, func(ack core.CommandAck, err error) {
		if err != nil {
			// Ack lost or ventilator unreachable: the pause may or may
			// not have taken effect. Do not image, and send a
			// precautionary resume so an uncertainly-paused ventilator
			// is never left stopped.
			s.Deferred++
			s.resume(s.cfg.ResumeRetries)
			return
		}
		if !ack.OK {
			// Definitively refused (e.g. already paused by someone else):
			// leave it alone.
			s.Deferred++
			return
		}
		s.k.After(s.cfg.PauseSettle, func() {
			s.shoot()
			// Resume once the exposure has certainly completed: command
			// delivery can take up to DelayBound, then the exposure runs.
			margin := 250 * time.Millisecond
			wait := s.cfg.Exposure.Duration() + s.cfg.DelayBound + margin
			s.k.After(wait, func() {
				s.resume(s.cfg.ResumeRetries)
			})
		})
	})
}

func (s *XRaySync) resume(retries int) {
	s.mgr.SendCommand(s.cfg.VentilatorID, "resume", nil, s.cfg.CommandTimeout, func(ack core.CommandAck, err error) {
		if err == nil && ack.OK {
			return
		}
		if retries > 0 {
			s.resume(retries - 1)
			return
		}
		// The paper's fatal scenario: ventilator left paused.
		s.ResumeFailures++
	})
}

// scheduleInWindow implements the state-transmission protocol: find the
// next quiescent window wide enough for worst-case command delay plus the
// exposure, and time the command so the exposure lands inside it.
func (s *XRaySync) scheduleInWindow() {
	if !s.anchorSeen {
		s.Deferred++
		return
	}
	cycle := s.cfg.Cycle
	cycle.RatePerMin = s.rate
	now := s.k.Now()
	bound := sim.Time(s.cfg.DelayBound)

	// Search a few upcoming windows for one that fits. The command is
	// issued no earlier than the window start, so even an instantaneous
	// delivery lands inside the window; and the window must be wide
	// enough that a worst-case (DelayBound) delivery still finishes the
	// exposure before the next inhalation.
	searchFrom := now
	for i := 0; i < 4; i++ {
		ws, we := cycle.NextQuiescentWindow(searchFrom, s.anchor)
		if we == 0 && ws == 0 {
			break // settings leave no quiescent time at all
		}
		sendAt := ws
		if sendAt < now {
			sendAt = now
		}
		if sendAt+bound+s.cfg.Exposure <= we {
			s.k.AtFunc(sendAt, runShoot, s)
			return
		}
		searchFrom = we + sim.Millisecond
	}
	s.Deferred++
}

// Describe summarizes counters for logs.
func (s *XRaySync) Describe() string {
	return fmt.Sprintf("%s: requests=%d shots=%d deferred=%d resume-failures=%d",
		s.cfg.Protocol, s.Requests, s.ShotsCommanded, s.Deferred, s.ResumeFailures)
}
