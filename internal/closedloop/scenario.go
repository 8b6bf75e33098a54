package closedloop

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/icewire"
	"repro/internal/mednet"
	"repro/internal/physio"
	"repro/internal/sim"
)

// PCAScenarioConfig assembles the complete Figure 1 rig: patient, pump,
// pulse oximeter, ICE manager and supervisor over a lossy network.
type PCAScenarioConfig struct {
	Seed     int64
	Duration sim.Time

	Patient       physio.Traits // zero value => default traits
	PatientIdx    int           // population index when sampling
	UsePopulation bool
	Population    physio.PopulationSpec

	Pump              device.PumpSettings
	Link              mednet.LinkParams
	Supervisor        PCAConfig // PumpID/OximeterID filled in by the builder
	SupervisorEnabled bool

	// ProxyPresses injects PCA-by-proxy abuse: a visitor pressing the
	// button every interval regardless of the patient's state.
	ProxyPressInterval sim.Time

	// OximeterOutageStart/End, when End > Start, schedule a total outage
	// of the oximeter->supervisor path — the network-partition fault of
	// experiment E6. Part of the config (rather than a post-build call) so
	// a scenario is a pure function of its config, which is what lets the
	// fleet layer build cells from declarative specs.
	OximeterOutageStart sim.Time
	OximeterOutageEnd   sim.Time

	// Trace, when non-nil, is the (empty or Reset) trace the scenario
	// records into instead of allocating its own — the fleet layer pools
	// one per worker so ensemble runs reuse sample buffers across cells.
	// The recorded contents are a pure function of the config either way.
	Trace *sim.Trace
}

// DefaultPCAScenario returns a 2-hour session reproducing the adverse-
// event setup of the paper's PCA discussion: the pump is misprogrammed
// with lax safety limits (short lockout, inflated hourly cap — "the pump
// programmer overestimates the maximum dose") and double-concentration
// drug is loaded, while a well-meaning visitor presses the button for the
// patient (PCA-by-proxy). The built-in safeguards are thereby defeated,
// and only the network supervisor stands between the patient and
// respiratory failure.
func DefaultPCAScenario(seed int64) PCAScenarioConfig {
	pump := device.DefaultPumpSettings()
	pump.ConcentrationFactor = 2           // wrong vial loaded
	pump.LockoutInterval = 2 * time.Minute // misprogrammed lockout
	pump.HourlyLimitMg = 30                // misprogrammed hourly cap
	return PCAScenarioConfig{
		Seed:               seed,
		Duration:           2 * sim.Hour,
		Pump:               pump,
		Link:               mednet.DefaultLink(),
		Supervisor:         DefaultPCAConfig("pump1", "ox1"),
		SupervisorEnabled:  true,
		ProxyPressInterval: 3 * sim.Minute,
	}
}

// PCAScenario is the assembled rig.
type PCAScenario struct {
	K        *sim.Kernel
	Net      *mednet.Network
	Mgr      *core.Manager
	Wire     *icewire.Binary // the cell's shared wire codec (encode accounting)
	Patient  *physio.Patient
	Pump     *device.Pump
	Oximeter *device.Oximeter
	Ward     *device.Ward
	Sup      *PCASupervisor // nil when disabled
	Trace    *sim.Trace
}

// PCAOutcome summarizes a finished run for scoring.
type PCAOutcome struct {
	MinSpO2         float64
	SecondsBelow90  float64
	SecondsBelow85  float64
	Distressed      bool // ever entered the danger zone
	TotalDrugMg     float64
	Boluses         uint64
	BolusesDenied   uint64
	PumpStops       uint64
	Alarms          int
	DataTimeouts    uint64
	MeanStopLatency sim.Time
	FinalPain       float64
}

// BuildPCAScenario constructs (but does not run) the rig.
func BuildPCAScenario(cfg PCAScenarioConfig) *PCAScenario {
	k := sim.NewKernel()
	rng := sim.NewRNG(cfg.Seed)
	net := mednet.MustNew(k, rng.Fork("net"), cfg.Link)
	// One codec instance serves the whole cell (it is single-threaded),
	// sharing the decode intern table and summing encode accounting.
	wire := core.NewBinaryCodec()
	mgrCfg := core.DefaultManagerConfig()
	mgrCfg.Codec = wire
	mgr := core.MustNewManager(k, net, mgrCfg)

	sc := &PCAScenario{K: k, Net: net, Mgr: mgr, Wire: wire}

	if cfg.UsePopulation {
		sc.Patient = cfg.Population.Sample(cfg.PatientIdx, rng.Fork("population"))
	} else {
		tr := cfg.Patient
		if tr.ID == "" {
			tr = physio.DefaultTraits()
		}
		sc.Patient = physio.NewPatient(tr, physio.MustPK(physio.DefaultMorphinePK()),
			physio.MustPD(physio.DefaultMorphinePD()), rng.Fork("patient"))
	}
	patient := sc.Patient

	pumpSettings := cfg.Pump
	if pumpSettings.HourlyLimitMg == 0 {
		pumpSettings = device.DefaultPumpSettings()
	}
	pump := device.MustNewPump(k, net, "pump1", pumpSettings, core.ConnectConfig{Codec: wire})
	sc.Pump = pump
	sc.Oximeter = device.MustNewOximeter(k, net, "ox1", patient, rng.Fork("ox"), core.ConnectConfig{Codec: wire})

	trace := cfg.Trace
	if trace == nil {
		trace = sim.NewTrace()
	}
	sc.Trace = trace
	ward := device.NewWard(k, patient, sim.Second)
	ward.Trace = trace
	ward.AttachDrugSource(pump)
	sc.Ward = ward

	if cfg.SupervisorEnabled {
		supCfg := cfg.Supervisor
		if supCfg.PumpID == "" {
			supCfg = DefaultPCAConfig("pump1", "ox1")
		}
		sc.Sup = MustNewPCASupervisor(k, mgr, supCfg)
		sc.Sup.OnAlarm(func(a Alarm) { trace.Annotate(a.At, "alarm", "%s: %s", a.Kind, a.Msg) })
	}

	// Patient demand behaviour: check the urge every 30 s.
	k.Every(30*time.Second, func(sim.Time) {
		if patient.WantsBolus(30 * sim.Second) {
			pump.PressButton()
		}
	})
	// PCA-by-proxy abuse, if configured.
	if cfg.ProxyPressInterval > 0 {
		k.Every(cfg.ProxyPressInterval.Duration(), func(sim.Time) { pump.PressButton() })
	}
	// Record supervisor-visible signals (interned: one sample per
	// estimate window for the whole session).
	obsSpO2 := trace.SeriesID("obs/spo2")
	mgr.Subscribe("ox1/spo2", func(_ string, d core.Datum) {
		if d.Valid {
			trace.RecordID(obsSpO2, k.Now(), d.Value)
		}
	})
	// Configured network partition of the sensing path.
	if cfg.OximeterOutageEnd > cfg.OximeterOutageStart {
		if err := net.Outage("ox1", mgr.Addr(), cfg.OximeterOutageStart, cfg.OximeterOutageEnd); err != nil {
			panic(fmt.Sprintf("closedloop: oximeter outage: %v", err))
		}
	}
	return sc
}

// Run executes the scenario to its horizon and scores it.
func (sc *PCAScenario) Run(d sim.Time) (PCAOutcome, error) {
	if err := sc.K.Run(d); err != nil {
		return PCAOutcome{}, err
	}
	return sc.score(), nil
}

func (sc *PCAScenario) score() PCAOutcome {
	st := sc.Trace.Stats("true/spo2")
	below90 := 0.0
	below85 := 0.0
	s := sc.Trace.Series("true/spo2")
	for i := 0; i+1 < len(s); i++ {
		dt := (s[i+1].T - s[i].T).Seconds()
		if s[i].V < 90 {
			below90 += dt
		}
		if s[i].V < 85 {
			below85 += dt
		}
	}
	out := PCAOutcome{
		MinSpO2:        st.Min,
		SecondsBelow90: below90,
		SecondsBelow85: below85,
		Distressed:     below85 > 0,
		TotalDrugMg:    sc.Patient.PK().TotalInfused(),
		Boluses:        sc.Pump.BolusesDelivered,
		BolusesDenied:  sc.Pump.BolusesDenied,
		FinalPain:      sc.Patient.Vitals().Pain,
	}
	if sc.Sup != nil {
		out.PumpStops = sc.Sup.StopsIssued
		out.Alarms = len(sc.Sup.Alarms())
		out.DataTimeouts = sc.Sup.DataTimeouts
		out.MeanStopLatency = sc.Sup.MeanStopLatency()
	}
	return out
}

// RunPCAScenario builds and runs in one call.
func RunPCAScenario(cfg PCAScenarioConfig) (PCAOutcome, *PCAScenario, error) {
	sc := BuildPCAScenario(cfg)
	out, err := sc.Run(cfg.Duration)
	return out, sc, err
}

// Metric names emitted by PCAOutcome.Metrics. Exported so fleet reducers
// and experiment tables agree on spelling.
const (
	MetricMinSpO2        = "min_spo2"
	MetricSecondsBelow90 = "s_below90"
	MetricSecondsBelow85 = "s_below85"
	MetricDistressed     = "distressed"
	MetricDrugMg         = "drug_mg"
	MetricBoluses        = "boluses"
	MetricBolusesDenied  = "boluses_denied"
	MetricPumpStops      = "stops"
	MetricAlarms         = "alarms"
	MetricDataTimeouts   = "timeouts"
	MetricStopLatencyNs  = "stop_latency_ns"
	MetricFinalPain      = "final_pain"

	// MetricSimEvents is the reserved engine counter: cell runners report
	// the kernel's executed-event total under it, and the fleet layer
	// lifts it out of the metrics map into Result.Events (it never appears
	// in reduced clinical tables). Must match fleet.MetricSimEvents; the
	// value is spelled here so scenario packages stay free of fleet
	// imports.
	MetricSimEvents = "sim/events"

	// MetricWireBytes and MetricWireEncodeNS are the reserved wire-codec
	// counters, lifted the same way into Result.WireBytes and
	// Result.WireEncodeNS: encoded envelope bytes and (sampled) encode
	// wall time for the cell's shared codec. The serving layer sums them
	// into its wire_bytes_total / wire_encode_ns gauges.
	//
	// WARNING: MetricWireEncodeNS is wall-clock time — the one reserved
	// key that is NOT deterministic. It exists only to ride the lift
	// into Result.WireEncodeNS; any consumer of the raw cell map other
	// than fleet.runCell must strip it before comparing runs (as
	// TestRunXRaySyncCellDeterministic does).
	MetricWireBytes    = "wire/bytes"
	MetricWireEncodeNS = "wire/encode_ns"
)

// Metrics flattens the outcome into the named-float form the fleet reduce
// stage consumes. Booleans become 0/1; durations are kept in integer
// nanoseconds (exact in a float64 for any plausible latency) so tables can
// reconstruct the original sim.Time bit-for-bit.
func (o PCAOutcome) Metrics() map[string]float64 {
	m := map[string]float64{
		MetricMinSpO2:        o.MinSpO2,
		MetricSecondsBelow90: o.SecondsBelow90,
		MetricSecondsBelow85: o.SecondsBelow85,
		MetricDistressed:     0,
		MetricDrugMg:         o.TotalDrugMg,
		MetricBoluses:        float64(o.Boluses),
		MetricBolusesDenied:  float64(o.BolusesDenied),
		MetricPumpStops:      float64(o.PumpStops),
		MetricAlarms:         float64(o.Alarms),
		MetricDataTimeouts:   float64(o.DataTimeouts),
		MetricStopLatencyNs:  float64(int64(o.MeanStopLatency)),
		MetricFinalPain:      o.FinalPain,
	}
	if o.Distressed {
		m[MetricDistressed] = 1
	}
	return m
}

// RunPCACell builds the rig from cfg, runs it to the configured horizon,
// and returns the flattened outcome — the exact shape of a fleet cell
// body. It returns a plain map so this package stays free of fleet
// imports (fleet imports closedloop, not the reverse).
func RunPCACell(cfg PCAScenarioConfig) (map[string]float64, error) {
	out, sc, err := RunPCAScenario(cfg)
	if err != nil {
		return nil, err
	}
	m := out.Metrics()
	m[MetricSimEvents] = float64(sc.K.Executed())
	ws := sc.Wire.Stats()
	m[MetricWireBytes] = float64(ws.Bytes)
	m[MetricWireEncodeNS] = float64(ws.EncodeNS)
	return m, nil
}
