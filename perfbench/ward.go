package main

import (
	"context"
	"time"

	"repro/internal/fleet"
	"repro/internal/icescope"
	"repro/internal/sim"
)

// pca-ward: the paper's Figure 1 supervision loop as a local fleet. One
// client runs 8-cell ensembles of 30-minute pca-supervised sessions back
// to back on a Runner with one worker per CPU. No serving layer.

var wardShape = ensembleShape{
	scenario: fleet.ScenarioPCASupervised,
	cells:    ensembleCells,
	params:   fleet.Params{Duration: wardMinutes * sim.Minute},
}

// wardSLOSeconds is pca-ward's fixed latency limit for one ensemble:
// about 1.25 times the p90 a loaded 2-core host gave (120 ms), so that a
// slower host alone does not move slo_frac. It is kept constant.
const wardSLOSeconds = 0.150

// wardChecks is how many ensembles are re-run serially per run.
const wardChecks = 4

func runWard(o options) (*result, error) {
	ctx := context.Background()
	res := newResult("icegate.", "icestore.", "icemesh.")
	runner := fleet.Runner{Workers: o.workers}
	warm := newSeedStream(o.seed, streamWarmup)
	_, setups, err := medianSetup(setupRepeats, func() (struct{}, error) {
		_, err := runEnsemble(ctx, runner, wardShape, warm.next(), icescope.Span{})
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	seeds := newSeedStream(o.seed, streamWard)

	if !o.traced {
		ph := ensembleLoop(ctx, o.seconds, runner, wardShape, seeds, icescope.Span{}, res)
		// Each sampled ensemble must reduce to the bytes a serial
		// Workers: 1 run gives.
		wrong, err := checkAgainst(ctx, fleet.Runner{Workers: 1}, wardShape, sample(o.seed, ph.done, wardChecks), "serial", res)
		if err != nil {
			return nil, err
		}
		res.e2e.setN("setup_s", percentile(setups, 50), len(setups))
		res.e2e.set("cells_per_s", ph.cellsPerS(wardShape))
		setEnsembleLatencies(res, wardShape, ph, wardSLOSeconds, wrong)
		return res, nil
	}

	// Traced run: untraced quarters for the headline, traced quarters
	// with spans and fine-ladder fleet histograms.
	reg := icescope.NewRegistry()
	traced := runner
	traced.Obs = fineObs(reg, "perfbench_fleet")
	tr := newTrace("pca-ward")
	plain, ph, proc := tracedPhases(o.seconds,
		func(d time.Duration) ensemblePhase {
			return ensembleLoop(ctx, d, runner, wardShape, seeds, icescope.Span{}, res)
		},
		func(d time.Duration) ensemblePhase { return tracedLoop(ctx, d, traced, wardShape, seeds, tr, res) },
		(*ensemblePhase).merge)
	if err := writeTrace(o, "pca-ward", tr, res); err != nil {
		return nil, err
	}

	vs := res.layer
	obs, err := parseExposition(reg.Expose())
	if err != nil {
		return nil, err
	}
	cellNS := setFleetHists(vs, nil, obs, "perfbench_fleet")
	if err := vs.setEnsembleCellPath(wardShape, ph, proc, cellNS); err != nil {
		return nil, err
	}
	vs.set("trace.overhead_frac", 1-ph.cellsPerS(wardShape)/plain.cellsPerS(wardShape))
	return res, nil
}
