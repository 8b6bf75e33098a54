package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/closedloop"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/icewire"
	"repro/internal/mednet"
	"repro/internal/physio"
	"repro/internal/sigproc"
	"repro/internal/sim"
)

// The cell-path layer replay. The traced run times each cell-path
// layer's public function on inputs shaped like the workload's cells,
// multiplies by the operations a cell performs, and divides by the host
// time a cell took: that is the layer's share. Whatever the shares do
// not cover is reported as cell.unattributed_share, so the model's gap
// stays visible.

// cellOps is the work in one average cell of a workload. Kernel events
// and wire figures are exact counts the cells report; the signal and
// physiology counts follow from the scenario's public defaults (50 Hz
// pleth in 4 s windows, a 1 s ward step).
type cellOps struct {
	events, wireBytes, encodeNS float64
	samples, windows, steps     float64
	depth                       float64 // mean standing kernel-queue depth
}

// scenarioOps returns the default-derived counts and the queue depth of
// one cell of a catalog scenario lasting d of sim time (X-ray sessions
// take their length from their request schedule).
func scenarioOps(scenario string, d sim.Time) (cellOps, error) {
	switch scenario {
	case fleet.ScenarioPCASupervised, fleet.ScenarioTeleICUProbe:
		s := d.Seconds()
		cfg := closedloop.DefaultPCAScenario(1)
		cfg.Duration = d
		sc := closedloop.BuildPCAScenario(cfg)
		return cellOps{samples: s * 50, windows: s / 4, steps: s, depth: queueDepth(sc.K, cfg.Duration)}, nil
	case fleet.ScenarioXRayVentSync:
		cfg := closedloop.DefaultXRaySyncScenario(1, closedloop.ProtocolStateSync)
		sc, err := closedloop.BuildXRaySyncScenario(cfg)
		if err != nil {
			return cellOps{}, err
		}
		// The session runs 10 s plus Requests+6 request spacings; no
		// oximeter, so no signal processing.
		horizon := 10*sim.Second + sim.Time(cfg.Requests+6)*cfg.Spacing
		return cellOps{steps: horizon.Seconds(), depth: queueDepth(sc.K, horizon)}, nil
	}
	return cellOps{}, fmt.Errorf("no cell model for scenario %q", scenario)
}

// queueDepth steps a freshly built rig to its horizon and returns the
// mean number of pending events per step.
func queueDepth(k *sim.Kernel, horizon sim.Time) float64 {
	total, n := 0, 0
	for k.Now() < horizon && k.Step() {
		total += k.Pending()
		n++
	}
	return float64(total) / float64(max(n, 1))
}

// mix averages per-scenario cell work weighted by cells run.
func mix(parts map[string]cellOps, cells map[string]int) cellOps {
	var out cellOps
	total := 0
	for sc, n := range cells {
		p := parts[sc]
		w := float64(n)
		out.samples += w * p.samples
		out.windows += w * p.windows
		out.steps += w * p.steps
		out.depth += w * p.depth
		total += n
	}
	t := float64(max(total, 1))
	out.samples /= t
	out.windows /= t
	out.steps /= t
	out.depth /= t
	return out
}

// perOp runs fn(n) rounds times and returns the median nanoseconds per
// operation; fn performs n operations.
func perOp(rounds, n int, fn func(n int) error) (float64, error) {
	per := make([]float64, 0, rounds)
	for range rounds {
		t0 := time.Now()
		if err := fn(n); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return percentile(per, 50), nil
}

// replay is the per-operation cost of each cell-path layer.
type replay struct {
	eventNS, synthNS, pushNS, windowNS, stepNS float64
	datagramNS, envelopeNS, publishNS          float64
	commandNS, updateNS                        float64
}

const replayRounds = 5

func runReplay(depth int) (replay, error) {
	var rp replay
	var err error
	steps := []struct {
		dst *float64
		n   int
		fn  func(int) error
	}{
		{&rp.eventNS, 200_000, kernelReplay(depth)},
		{&rp.stepNS, 1800 * 10, physioReplay()},
		{&rp.datagramNS, 50_000, mednetReplay()},
		{&rp.envelopeNS, 200_000, wireReplay()},
		{&rp.publishNS, 20_000, publishReplay()},
		{&rp.commandNS, 10_000, commandReplay()},
		{&rp.updateNS, 200_000, controlReplay()},
	}
	for _, s := range steps {
		if *s.dst, err = perOp(replayRounds, s.n, s.fn); err != nil {
			return rp, err
		}
	}
	rp.synthNS, rp.pushNS, rp.windowNS, err = sigprocReplay(450)
	return rp, err
}

// kernelReplay: AtFunc + Step over a standing queue of depth events.
func kernelReplay(depth int) func(int) error {
	k := sim.NewKernel()
	noop := func(any) {}
	for i := range max(depth, 1) {
		k.AtFunc(sim.Time(1)<<50+sim.Time(i), noop, nil)
	}
	return func(n int) error {
		for range n {
			k.AtFunc(k.Now()+sim.Millisecond, noop, nil)
			if !k.Step() {
				return fmt.Errorf("kernel replay: queue ran dry")
			}
		}
		return nil
	}
}

// sigprocReplay synthesizes and estimates windows 4 s windows of pleth:
// per-sample Synth.Next, per-sample Push that does not close a window,
// and the Push that closes one.
func sigprocReplay(windows int) (synthNS, pushNS, windowNS float64, err error) {
	synth := sigproc.NewSynth(sigproc.DefaultSynth(), sim.NewRNG(1))
	est := sigproc.NewEstimator(sigproc.DefaultEstimator())
	dt := synth.SampleInterval()
	buf := make([]sigproc.PlethSample, est.WindowSamples())
	var synthT, pushT time.Duration
	closing := make([]float64, 0, windows)
	t := sim.Time(0)
	for range windows {
		t0 := time.Now()
		for i := range buf {
			buf[i] = synth.Next(t, dt, 78, 97)
			t += dt
		}
		t1 := time.Now()
		for _, s := range buf[:len(buf)-1] {
			if _, ok := est.Push(s); ok {
				return 0, 0, 0, fmt.Errorf("sigproc replay: window closed early")
			}
		}
		t2 := time.Now()
		_, ok := est.Push(buf[len(buf)-1])
		closing = append(closing, float64(time.Since(t2).Nanoseconds()))
		if !ok {
			return 0, 0, 0, fmt.Errorf("sigproc replay: window did not close")
		}
		synthT += t1.Sub(t0)
		pushT += t2.Sub(t1)
	}
	samples := float64(windows * len(buf))
	return float64(synthT.Nanoseconds()) / samples,
		float64(pushT.Nanoseconds()) / (samples - float64(windows)),
		percentile(closing, 50), nil
}

// physioReplay: Patient.Step at the ward's 1 s step, restarting the
// patient every 30 sim-minutes as a new cell would.
func physioReplay() func(int) error {
	p := physio.DefaultPatient(sim.NewRNG(1))
	steps := 0
	return func(n int) error {
		for range n {
			if steps%1800 == 0 {
				p.Reset()
			}
			p.Step(sim.Second, 0.05)
			steps++
		}
		return nil
	}
}

// mednetReplay: one healthy-path datagram sent, flown and handled.
func mednetReplay() func(int) error {
	k := sim.NewKernel()
	net := mednet.MustNew(k, sim.NewRNG(1), mednet.DefaultLink())
	got := 0
	net.Register("b", func(mednet.Message) { got++ })
	payload := make([]byte, 64)
	return func(n int) error {
		for range n {
			net.Send("a", "b", "obs", payload)
			if err := k.Run(k.Now() + 10*sim.Millisecond); err != nil {
				return err
			}
		}
		if got == 0 {
			return fmt.Errorf("mednet replay: nothing delivered")
		}
		return nil
	}
}

// wireReplay: binary encode of one publish envelope, frame decode, and
// typed body decode.
func wireReplay() func(int) error {
	c := icewire.NewBinary()
	datum := icewire.Datum{Topic: "ox1/spo2", Value: 97.25, Valid: true, Quality: 0.875, Sampled: 4987 * sim.Millisecond}
	var buf []byte
	var out icewire.Datum
	return func(n int) error {
		for i := range n {
			var err error
			if buf, err = c.AppendEnvelope(buf[:0], icewire.MsgPublish, "ox1", "ice-manager", uint64(i), 5*sim.Second, &datum); err != nil {
				return err
			}
			env, err := c.Decode(buf)
			if err != nil {
				return err
			}
			if err := c.DecodeBody(&env, &out); err != nil {
				return err
			}
		}
		if out.Topic != datum.Topic {
			return fmt.Errorf("wire replay: round trip corrupted the datum")
		}
		return nil
	}
}

// iceRig is a manager with one admitted oximeter and one admitted pump
// on a healthy network.
type iceRig struct {
	k        *sim.Kernel
	mgr      *core.Manager
	ox, pump *core.DeviceConn
	got      int
}

func newICERig() *iceRig {
	r := &iceRig{k: sim.NewKernel()}
	net := mednet.MustNew(r.k, sim.NewRNG(1), mednet.DefaultLink())
	r.mgr = core.MustNewManager(r.k, net, core.DefaultManagerConfig())
	r.mgr.Subscribe("ox1/spo2", func(string, core.Datum) { r.got++ })
	r.ox = core.MustConnect(r.k, net, device.OximeterDescriptor("ox1"), core.ConnectConfig{})
	r.pump = core.MustConnect(r.k, net, device.PumpDescriptor("pump1"), core.ConnectConfig{})
	r.pump.Handle("stop", func(map[string]float64) error { return nil })
	_ = r.k.Run(r.k.Now() + sim.Second) // announce and admit
	return r
}

// stepUntil steps the rig's kernel until done reports true.
func (r *iceRig) stepUntil(done func() bool) error {
	for !done() {
		if !r.k.Step() {
			return fmt.Errorf("ICE replay: queue ran dry before delivery")
		}
	}
	return nil
}

// publishReplay: DeviceConn.Publish through to the manager's subscriber.
func publishReplay() func(int) error {
	r := newICERig()
	return func(n int) error {
		for range n {
			want := r.got + 1
			r.ox.Publish("spo2", 97, true, 0.9, r.k.Now())
			if err := r.stepUntil(func() bool { return r.got >= want }); err != nil {
				return err
			}
		}
		return nil
	}
}

// commandReplay: Manager.SendCommand through to the pump's ack.
func commandReplay() func(int) error {
	r := newICERig()
	return func(n int) error {
		for range n {
			acked := false
			var ackErr error
			r.mgr.SendCommand("pump1", "stop", nil, 5*time.Second, func(ack core.CommandAck, err error) {
				acked, ackErr = true, err
			})
			if err := r.stepUntil(func() bool { return acked }); err != nil {
				return err
			}
			if ackErr != nil {
				return fmt.Errorf("command replay: %w", ackErr)
			}
		}
		return nil
	}
}

// controlReplay: Supervisor.Update closing a loop around a first-order
// plant, with three candidate models.
func controlReplay() func(int) error {
	var cands []control.Candidate
	for _, g := range []float64{0.3, 1, 3} {
		cands = append(cands, control.Candidate{
			Name: fmt.Sprintf("g%g", g), Gain: g, Tau: 300, Tau2: 60,
			Ctrl: control.MustPID(control.TunePIDFor(g, 300, 0, 10)),
		})
	}
	sup := control.MustSupervisor(control.DefaultSupervisorParams(), cands)
	y := 0.0
	return func(n int) error {
		for range n {
			u := sup.Update(0.4, y, 10)
			y += (u - y) * 10 / 300
		}
		if math.IsNaN(y) {
			return fmt.Errorf("control replay: plant diverged")
		}
		return nil
	}
}

// replayCellPath replays the cell-path layers at the queue depth of the
// workload's average cell ops, which took cellNS of host time, and
// reports their per-operation costs and shares.
func (vs *values) replayCellPath(ops cellOps, cellNS float64) error {
	rp, err := runReplay(int(ops.depth + 0.5))
	if err != nil {
		return err
	}
	simShare := rp.eventNS * ops.events / cellNS
	sigShare := (rp.synthNS*ops.samples + rp.pushNS*(ops.samples-ops.windows) + rp.windowNS*ops.windows) / cellNS
	physShare := rp.stepNS * ops.steps / cellNS
	wireShare := ops.encodeNS / cellNS
	vs.set("sim.events_per_cell", ops.events)
	vs.set("sim.ns_per_event", rp.eventNS)
	vs.set("sim.share", simShare)
	vs.set("sigproc.synth_ns_per_sample", rp.synthNS)
	vs.set("sigproc.window_us", rp.windowNS/1e3)
	vs.set("sigproc.share", sigShare)
	vs.set("physio.step_ns", rp.stepNS)
	vs.set("physio.share", physShare)
	vs.set("mednet.ns_per_datagram", rp.datagramNS)
	vs.set("icewire.ns_per_envelope", rp.envelopeNS)
	vs.set("icewire.bytes_per_cell", ops.wireBytes)
	vs.set("icewire.encode_share", wireShare)
	vs.set("core.publish_ns", rp.publishNS)
	vs.set("core.command_us", rp.commandNS/1e3)
	vs.set("control.update_ns", rp.updateNS)
	vs.set("cell.unattributed_share", 1-simShare-sigShare-physShare-wireShare)
	return nil
}

// buildMS times fleet.Build plus one worker's prototype rig for an
// ensemble request: the construction a runner pays per ensemble and
// worker before the first cell runs.
func buildMS(shape ensembleShape) (float64, error) {
	ns, err := perOp(replayRounds, 20, func(n int) error {
		for i := range n {
			spec, err := fleet.Build(shape.scenario, shape.paramsFor(int64(i+1)))
			if err != nil {
				return err
			}
			if spec.NewProto != nil && spec.NewProto() == nil {
				return fmt.Errorf("%s declined to build a prototype", shape.scenario)
			}
		}
		return nil
	})
	return ns / 1e6, err
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
