package closedloop

import (
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/icewire"
	"repro/internal/mednet"
	"repro/internal/physio"
	"repro/internal/sim"
)

// XRaySyncScenarioConfig assembles the complete Section II.b rig: one
// ventilated patient, an X-ray, and the synchronizer app coordinating
// them over a lossy network. Like PCAScenarioConfig, a run is a pure
// function of this config, which is what lets the fleet layer serve it
// as a registered cell.
type XRaySyncScenarioConfig struct {
	Seed     int64
	Requests int      // image requests per session; 0 = 24
	Spacing  sim.Time // gap between requests; 0 = 20 s
	Link     mednet.LinkParams
	Sync     XRaySyncConfig // full synchronizer design, incl. protocol

	// Trace, when non-nil, is the (empty or Reset) trace to record into —
	// see PCAScenarioConfig.Trace.
	Trace *sim.Trace
}

// DefaultXRaySyncScenario returns the E2 rig at its nominal network
// point (10 ms one-way latency, 2% loss) under the chosen protocol.
func DefaultXRaySyncScenario(seed int64, proto SyncProtocol) XRaySyncScenarioConfig {
	delay := 10 * time.Millisecond
	return XRaySyncScenarioConfig{
		Seed:     seed,
		Requests: 24,
		Spacing:  20 * sim.Second,
		Link:     mednet.LinkParams{Latency: delay, Jitter: delay / 4, LossProb: 0.02},
		Sync:     DefaultXRaySyncConfig("xr1", "vent1", proto),
	}
}

// XRaySyncOutcome scores one imaging session.
type XRaySyncOutcome struct {
	Sharp, Blurred      uint64 // image quality split
	Deferred            uint64 // state-sync: no usable window, request dropped
	ResumeFailures      uint64 // pause-restart: resume never acknowledged
	UnventilatedSeconds float64
	MinSpO2             float64
	KernelEvents        uint64 // kernel events executed by the session
	WireBytes           uint64 // encoded envelope bytes (shared cell codec)
	WireEncodeNS        uint64 // sampled encode wall time, ns
}

// Metric names emitted by XRaySyncOutcome.Metrics. MinSpO2 reuses
// MetricMinSpO2 so cross-scenario reducers agree on spelling.
const (
	MetricSharpImages    = "sharp"
	MetricBlurredImages  = "blurred"
	MetricDeferredShots  = "deferred"
	MetricResumeFailures = "resume_failures"
	MetricUnventilatedS  = "unventilated_s"
)

// Metrics flattens the outcome into the named-float form the fleet
// reduce stage consumes.
func (o XRaySyncOutcome) Metrics() map[string]float64 {
	return map[string]float64{
		MetricSharpImages:    float64(o.Sharp),
		MetricBlurredImages:  float64(o.Blurred),
		MetricDeferredShots:  float64(o.Deferred),
		MetricResumeFailures: float64(o.ResumeFailures),
		MetricUnventilatedS:  o.UnventilatedSeconds,
		MetricMinSpO2:        o.MinSpO2,
		MetricSimEvents:      float64(o.KernelEvents),
		MetricWireBytes:      float64(o.WireBytes),
		MetricWireEncodeNS:   float64(o.WireEncodeNS),
	}
}

// XRaySyncScenario is the assembled Section II.b rig.
type XRaySyncScenario struct {
	cfg XRaySyncScenarioConfig

	K       *sim.Kernel
	Net     *mednet.Network
	Mgr     *core.Manager
	Wire    *icewire.Binary
	Patient *physio.Patient
	Vent    *device.Ventilator
	XRay    *device.XRay
	Ward    *device.Ward
	Sync    *XRaySync
	Trace   *sim.Trace
}

// BuildXRaySyncScenario constructs (but does not run) the rig.
func BuildXRaySyncScenario(cfg XRaySyncScenarioConfig) (*XRaySyncScenario, error) {
	if cfg.Requests == 0 {
		cfg.Requests = 24
	}
	if cfg.Spacing == 0 {
		cfg.Spacing = 20 * sim.Second
	}

	k := sim.NewKernel()
	rng := sim.NewRNG(cfg.Seed)
	net := mednet.MustNew(k, rng.Fork("net"), cfg.Link)
	wire := core.NewBinaryCodec()
	mgrCfg := core.DefaultManagerConfig()
	mgrCfg.Codec = wire
	mgr := core.MustNewManager(k, net, mgrCfg)
	patient := physio.DefaultPatient(rng.Fork("patient"))

	vent := device.MustNewVentilator(k, net, cfg.Sync.VentilatorID, physio.DefaultBreathCycle(), patient, core.ConnectConfig{Codec: wire})
	xray := device.MustNewXRay(k, net, cfg.Sync.XRayID, vent, core.ConnectConfig{Codec: wire})
	ward := device.NewWard(k, patient, sim.Second)
	ward.AttachVentSupport(vent)
	tr := cfg.Trace
	if tr == nil {
		tr = sim.NewTrace()
	}
	ward.Trace = tr

	sync, err := NewXRaySync(k, mgr, cfg.Sync)
	if err != nil {
		return nil, err
	}

	for i := 0; i < cfg.Requests; i++ {
		at := 10*sim.Second + sim.Time(i)*cfg.Spacing
		k.AtFunc(at, runRequestImage, sync)
	}
	return &XRaySyncScenario{
		cfg: cfg, K: k, Net: net, Mgr: mgr, Wire: wire, Patient: patient,
		Vent: vent, XRay: xray, Ward: ward, Sync: sync, Trace: tr,
	}, nil
}

// run executes the session to its horizon and scores it.
func (sc *XRaySyncScenario) run() (XRaySyncOutcome, error) {
	horizon := 10*sim.Second + sim.Time(sc.cfg.Requests+6)*sc.cfg.Spacing
	if err := sc.K.Run(horizon); err != nil {
		return XRaySyncOutcome{}, err
	}

	ws := sc.Wire.Stats()
	out := XRaySyncOutcome{
		Sharp: sc.XRay.Sharp, Blurred: sc.XRay.Blurred, Deferred: sc.Sync.Deferred,
		ResumeFailures: sc.Sync.ResumeFailures,
		MinSpO2:        sc.Trace.Stats("true/spo2").Min,
		KernelEvents:   sc.K.Executed(),
		WireBytes:      ws.Bytes,
		WireEncodeNS:   ws.EncodeNS,
	}
	// Unventilated time: integrate the recorded mechanical-support series.
	ev := sc.Trace.Series("true/extvent")
	for i := 0; i+1 < len(ev); i++ {
		if ev[i].V < 0.5 {
			out.UnventilatedSeconds += (ev[i+1].T - ev[i].T).Seconds()
		}
	}
	return out, nil
}

// RunXRaySyncScenario builds the rig from cfg, runs the imaging session
// to its horizon, and scores it.
func RunXRaySyncScenario(cfg XRaySyncScenarioConfig) (XRaySyncOutcome, error) {
	sc, err := BuildXRaySyncScenario(cfg)
	if err != nil {
		return XRaySyncOutcome{}, err
	}
	return sc.run()
}

// RunXRaySyncCell is RunXRaySyncScenario in fleet-cell shape: a plain
// metric map, so this package stays free of fleet imports.
func RunXRaySyncCell(cfg XRaySyncScenarioConfig) (map[string]float64, error) {
	out, err := RunXRaySyncScenario(cfg)
	if err != nil {
		return nil, err
	}
	return out.Metrics(), nil
}
