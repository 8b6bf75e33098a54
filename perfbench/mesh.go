package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/icemesh"
	"repro/internal/icescope"
	"repro/internal/sim"
)

// mesh-probe: an in-process icemesh coordinator with two nodes of two
// workers over loopback TCP. One client runs 8-cell ensembles of
// tele-icu-probe cells (1 sim-minute, 8 ms remote round trip) through a
// Runner whose engine is the coordinator. The cells are latency-bound,
// so the workload measures shard dispatch, batch return and merge.

const (
	meshNodes       = 2
	meshNodeWorkers = 2
)

var probeShape = ensembleShape{
	scenario: fleet.ScenarioTeleICUProbe,
	cells:    probeCells,
	params: fleet.Params{
		Duration: probeMinutes * sim.Minute,
		Knobs:    map[string]float64{"rtt_ms": probeRTTMS},
	},
}

// probeLocalShape is the output check's local reference: the same cells
// with the round-trip pacing off. The scenario waits only after a cell's
// metrics are computed, so the reduced bytes are the same either way.
var probeLocalShape = ensembleShape{
	scenario: fleet.ScenarioTeleICUProbe,
	cells:    probeCells,
	params:   fleet.Params{Duration: probeMinutes * sim.Minute},
}

// meshSLOSeconds is mesh-probe's fixed latency limit for one ensemble:
// about 1.3 times the p90 a loaded 2-core host gave (34 ms), so that a
// slower host alone does not move slo_frac. It is kept constant.
const meshSLOSeconds = 0.045

// meshOverheadEnsembles sizes the equal-worker overhead comparison.
const meshOverheadEnsembles = 10

// meshStack is a running coordinator and its nodes.
type meshStack struct {
	coord       *icemesh.Coordinator
	ln          net.Listener
	cancel      context.CancelFunc
	wg          sync.WaitGroup
	waitNodesMS float64
}

// startMesh brings up the coordinator and nodes and waits until every
// node has registered. obs, when non-nil, is shared by the nodes.
func startMesh(obs *icemesh.NodeObs) (*meshStack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &meshStack{coord: icemesh.NewCoordinator(icemesh.Config{}), ln: ln, cancel: cancel}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		_ = st.coord.Serve(ln) // returns once the listener closes
	}()
	t0 := time.Now()
	for range meshNodes {
		node := icemesh.NewNode(icemesh.NodeConfig{Coordinator: ln.Addr().String(), Workers: meshNodeWorkers, Obs: obs})
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			_ = node.Run(ctx) // returns once ctx is cancelled
		}()
	}
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := st.coord.WaitForNodes(wctx, meshNodes); err != nil {
		st.close()
		return nil, err
	}
	st.waitNodesMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return st, nil
}

// close stops the nodes, the coordinator and its listener, and waits
// for every goroutine startMesh started.
func (st *meshStack) close() {
	st.cancel()
	_ = st.ln.Close()
	st.coord.Close()
	st.wg.Wait()
}

func (st *meshStack) metrics() (exposition, error) { return parseExposition(st.coord.MetricsText()) }

func runMesh(o options) (*result, error) {
	ctx := context.Background()
	res := newResult("icegate.", "icestore.")
	var obs *icemesh.NodeObs
	reg := icescope.NewRegistry()
	if o.traced {
		obs = icemesh.NewNodeObs(reg)
		obs.Fleet = fineObs(reg, "perfbench_node_fleet")
	}
	warm := newSeedStream(o.seed, streamWarmup)
	var waits []float64
	st, setups, err := medianSetup(setupRepeats, func() (*meshStack, error) {
		st, err := startMesh(obs)
		if err != nil {
			return nil, err
		}
		waits = append(waits, st.waitNodesMS)
		if _, err := runEnsemble(ctx, fleet.Runner{Engine: st.coord}, probeShape, warm.next(), icescope.Span{}); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up ensemble: %w", err)
		}
		return st, nil
	}, (*meshStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	runner := fleet.Runner{Engine: st.coord}
	seeds := newSeedStream(o.seed, streamProbe)
	// Every ensemble must reduce to the bytes of a local run.
	local := fleet.Runner{Workers: o.workers}

	if !o.traced {
		ph := ensembleLoop(ctx, o.seconds, runner, probeShape, seeds, icescope.Span{}, res)
		wrong, err := checkAgainst(ctx, local, probeLocalShape, ph.done, "local", res)
		if err != nil {
			return nil, err
		}
		res.e2e.setN("setup_s", percentile(setups, 50), len(setups))
		res.e2e.set("cells_per_s", ph.cellsPerS(probeShape))
		setEnsembleLatencies(res, probeShape, ph, meshSLOSeconds, wrong)
		return res, nil
	}

	tr := newTrace("mesh-probe")
	before, err := st.metrics()
	if err != nil {
		return nil, err
	}
	nodeBefore, err := parseExposition(reg.Expose())
	if err != nil {
		return nil, err
	}
	plain, ph, proc := tracedPhases(o.seconds,
		func(d time.Duration) ensemblePhase {
			return ensembleLoop(ctx, d, runner, probeShape, seeds, icescope.Span{}, res)
		},
		func(d time.Duration) ensemblePhase { return tracedLoop(ctx, d, runner, probeShape, seeds, tr, res) },
		(*ensemblePhase).merge)
	after, err := st.metrics()
	if err != nil {
		return nil, err
	}
	nodeAfter, err := parseExposition(reg.Expose())
	if err != nil {
		return nil, err
	}
	if err := writeTrace(o, "mesh-probe", tr, res); err != nil {
		return nil, err
	}
	if _, err := checkAgainst(ctx, local, probeLocalShape, append(plain.done, ph.done...), "local", res); err != nil {
		return nil, err
	}

	vs := res.layer
	cellNS := setFleetHists(vs, nodeBefore, nodeAfter, "perfbench_node_fleet")
	// Node sessions do not stamp fleet queue wait; nothing is observed.
	vs.set("fleet.queue_wait_ms_p90", 0)
	if err := vs.setEnsembleCellPath(probeShape, ph, proc, cellNS); err != nil {
		return nil, err
	}

	ensembles := float64(len(plain.done) + len(ph.done))
	vs.set("icemesh.wait_nodes_ms", percentile(waits, 50))
	vs.set("icemesh.shards_per_ensemble", counterDelta(before, after, "icemesh_shards_assigned_total")/ensembles)
	vs.set("icemesh.batches_per_ensemble", counterDelta(before, after, "icemesh_cell_batches_total")/ensembles)
	retries, _ := after.value("icemesh_shard_retries_total")
	vs.set("icemesh.shard_retries", retries)
	ratio, err := meshOverhead(ctx, st, o, warm, res)
	if err != nil {
		return nil, err
	}
	vs.set("icemesh.overhead_ratio", ratio)
	vs.set("trace.overhead_frac", 1-ph.cellsPerS(probeShape)/plain.cellsPerS(probeShape))
	return res, nil
}

// meshOverhead compares the same probe ensembles run on the mesh and on
// a local Runner with as many workers as the mesh has in total: the
// ratio of median ensemble latencies, mesh over local.
func meshOverhead(ctx context.Context, st *meshStack, o options, seeds *seedStream, res *result) (float64, error) {
	mesh := fleet.Runner{Engine: st.coord}
	local := fleet.Runner{Workers: meshNodes * meshNodeWorkers}
	var onMesh, onLocal []float64
	for range meshOverheadEnsembles {
		seed := seeds.next()
		m, err := runEnsemble(ctx, mesh, probeShape, seed, icescope.Span{})
		if err != nil {
			return 0, fmt.Errorf("overhead ensemble on the mesh: %w", err)
		}
		l, err := runEnsemble(ctx, local, probeShape, seed, icescope.Span{})
		if err != nil {
			return 0, fmt.Errorf("overhead ensemble on the local pool: %w", err)
		}
		if m.table != l.table {
			res.fail("probe ensemble seed=%d reduced differently on the mesh and the local pool", seed)
		}
		onMesh, onLocal = append(onMesh, m.seconds), append(onLocal, l.seconds)
	}
	return percentile(onMesh, 50) / percentile(onLocal, 50), nil
}
