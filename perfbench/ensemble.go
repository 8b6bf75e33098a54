package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

// renderTable is the canonical text of one ensemble result: the request
// identity line plus the fleet's reduced summary, the same bytes the
// gateway serves for a scenario job.
func renderTable(scenario string, seed int64, cells int, results []fleet.Result) string {
	return fmt.Sprintf("scenario %s seed=%d cells=%d\n%s", scenario, seed, cells, fleet.Reduce(results))
}

// ensembleShape is one workload's ensemble request, minus its seed.
type ensembleShape struct {
	scenario string
	cells    int
	params   fleet.Params // Seed and Cells are filled per request
}

func (s ensembleShape) paramsFor(seed int64) fleet.Params {
	p := s.params
	p.Seed, p.Cells = seed, s.cells
	return p
}

// ensembleOut is one completed ensemble request.
type ensembleOut struct {
	seed                            int64
	seconds                         float64 // request to reduced result
	table                           string
	events, wireBytes, wireEncodeNS uint64
}

// runEnsemble builds, runs and reduces one ensemble, recording a span
// around each call into the fleet under parent (inert when untraced).
// Any failed cell fails the ensemble.
func runEnsemble(ctx context.Context, runner fleet.Runner, shape ensembleShape, seed int64, parent icescope.Span) (ensembleOut, error) {
	out := ensembleOut{seed: seed}
	t0 := host.now()
	sp := parent.Child("ensemble")
	defer sp.End()

	b := sp.Child("fleet.Build")
	spec, err := fleet.Build(shape.scenario, shape.paramsFor(seed))
	b.End()
	if err != nil {
		return out, err
	}
	r := sp.Child("fleet.Runner.RunContext")
	runner.Span = r
	results, err := runner.RunContext(ctx, spec, nil)
	r.End()
	if err != nil {
		return out, err
	}
	if len(results) != shape.cells {
		return out, fmt.Errorf("%d of %d cells returned", len(results), shape.cells)
	}
	m := sp.Child("fleet.Reduce")
	out.table = renderTable(shape.scenario, seed, shape.cells, results)
	m.End()
	out.seconds = host.since(t0).Seconds()
	for _, res := range results {
		out.events += res.Events
		out.wireBytes += res.WireBytes
		out.wireEncodeNS += res.WireEncodeNS
	}
	return out, nil
}

// ensemblePhase is one closed-loop client's measured window.
type ensemblePhase struct {
	elapsed, wall time.Duration // host time and wall time
	done          []ensembleOut
}

func (p ensemblePhase) latencies() []float64 {
	out := make([]float64, len(p.done))
	for i, e := range p.done {
		out[i] = e.seconds
	}
	return out
}

func (p ensemblePhase) cells(shape ensembleShape) int { return len(p.done) * shape.cells }

func (p ensemblePhase) cellsPerS(shape ensembleShape) float64 {
	return float64(p.cells(shape)) / p.elapsed.Seconds()
}

func (p *ensemblePhase) merge(q ensemblePhase) {
	p.elapsed += q.elapsed
	p.wall += q.wall
	p.done = append(p.done, q.done...)
}

// setEnsembleCellPath reports the fleet's construction and allocation
// figures and the cell-path layers for an ensemble workload's traced
// quarters ph, whose cells took cellNS of host time on average.
func (vs *values) setEnsembleCellPath(shape ensembleShape, ph ensemblePhase, proc procCounters, cellNS float64) error {
	vs.setAlloc(proc, ph.cells(shape))
	ms, err := buildMS(shape)
	if err != nil {
		return err
	}
	vs.set("fleet.build_ms", ms)
	ops, err := scenarioOps(shape.scenario, shape.params.Duration)
	if err != nil {
		return err
	}
	ops.events = ph.perCell(shape, func(e ensembleOut) uint64 { return e.events })
	ops.wireBytes = ph.perCell(shape, func(e ensembleOut) uint64 { return e.wireBytes })
	ops.encodeNS = ph.perCell(shape, func(e ensembleOut) uint64 { return e.wireEncodeNS })
	return vs.replayCellPath(ops, cellNS)
}

// tracedPhases runs a traced run's measured time d as four alternating
// quarters, plain, traced, plain, traced, so drift during the run lands
// on both sides of trace.overhead_frac. It returns the merged plain and
// traced phases and the change of the process counters over the traced
// quarters.
func tracedPhases[P any](d time.Duration, plain, traced func(time.Duration) P, merge func(*P, P)) (a, b P, proc procCounters) {
	for range 2 {
		merge(&a, plain(d/4))
		before := readProcCounters()
		merge(&b, traced(d/4))
		proc = proc.add(readProcCounters().sub(before))
	}
	return a, b, proc
}

// perCell sums a per-ensemble counter and divides by the cells run.
func (p ensemblePhase) perCell(shape ensembleShape, f func(ensembleOut) uint64) float64 {
	t := uint64(0)
	for _, e := range p.done {
		t += f(e)
	}
	return float64(t) / float64(p.cells(shape))
}

// ensembleLoop sends ensembles back to back, each with the next seed of
// seeds, until d has passed, then waits for the one in flight. Failures
// count against res.
func ensembleLoop(ctx context.Context, d time.Duration, runner fleet.Runner, shape ensembleShape,
	seeds *seedStream, parent icescope.Span, res *result) ensemblePhase {
	var ph ensemblePhase
	t0 := host.now()
	for time.Since(t0) < d {
		seed := seeds.next()
		res.attempted++
		out, err := runEnsemble(ctx, runner, shape, seed, parent)
		if err != nil {
			res.fail("%s ensemble seed=%d: %v", shape.scenario, seed, err)
			continue
		}
		ph.done = append(ph.done, out)
	}
	end := host.now()
	ph.elapsed, ph.wall = host.between(t0, end), end.Sub(t0)
	return ph
}

// tracedLoop is ensembleLoop under a root span of its own in tr.
func tracedLoop(ctx context.Context, d time.Duration, runner fleet.Runner, shape ensembleShape,
	seeds *seedStream, tr *icescope.Trace, res *result) ensemblePhase {
	root := tr.Start(icescope.Span{}, "traced quarter")
	defer root.End()
	return ensembleLoop(ctx, d, runner, shape, seeds, root, res)
}

// checkAgainst re-runs ensembles with reference and fails each whose
// reduced bytes differ from what the measured run produced. It returns
// the seeds of the wrong ones.
func checkAgainst(ctx context.Context, reference fleet.Runner, shape ensembleShape, done []ensembleOut, what string, res *result) (map[int64]bool, error) {
	wrong := map[int64]bool{}
	for _, e := range done {
		want, err := runEnsemble(ctx, reference, shape, e.seed, icescope.Span{})
		if err != nil {
			return nil, fmt.Errorf("%s reference seed=%d: %w", what, e.seed, err)
		}
		if want.table != e.table {
			wrong[e.seed] = true
			res.fail("%s ensemble seed=%d reduced to different bytes than the %s reference", shape.scenario, e.seed, what)
		}
	}
	return wrong, nil
}

// fineObs registers fleet latency histograms on the fine ladder.
func fineObs(reg *icescope.Registry, prefix string) *fleet.Obs {
	return &fleet.Obs{
		CellSeconds:      reg.Histogram(prefix+"_cell_seconds", "Per-cell execution latency.", fineLadder()),
		QueueWaitSeconds: reg.Histogram(prefix+"_cell_queue_wait_seconds", "Per-cell dispatch-to-pickup wait.", fineLadder()),
	}
}

// setFleetHists reports the fleet's cell latency percentiles from the
// histograms prefix_cell_seconds and prefix_cell_queue_wait_seconds of
// an exposition (before and after a phase, so only the phase counts),
// and returns the mean cell time in ns.
func setFleetHists(vs *values, before, after exposition, prefix string) float64 {
	cell := delta(after.buckets(prefix+"_cell_seconds"), before.buckets(prefix+"_cell_seconds"))
	wait := delta(after.buckets(prefix+"_cell_queue_wait_seconds"), before.buckets(prefix+"_cell_queue_wait_seconds"))
	vs.set("fleet.cell_ms_p50", 1e3*bucketQuantile(0.5, cell))
	vs.set("fleet.cell_ms_p90", 1e3*bucketQuantile(0.9, cell))
	vs.set("fleet.queue_wait_ms_p90", 1e3*bucketQuantile(0.9, wait))
	sum := counterDelta(before, after, prefix+"_cell_seconds_sum")
	n := counterDelta(before, after, prefix+"_cell_seconds_count")
	return 1e9 * sum / n
}

// counterDelta is the change of an unlabeled series between scrapes
// (NaN when the later scrape lacks it).
func counterDelta(before, after exposition, name string, kv ...string) float64 {
	a, ok := after.value(name, kv...)
	if !ok {
		return math.NaN()
	}
	b, _ := before.value(name, kv...)
	return a - b
}

// sample draws a seeded subset of at most n ensembles to re-check.
func sample(seed int64, done []ensembleOut, n int) []ensembleOut {
	r := rand.New(rand.NewPCG(uint64(seed), streamSample))
	idx := r.Perm(len(done))
	if len(idx) > n {
		idx = idx[:n]
	}
	out := make([]ensembleOut, len(idx))
	for i, j := range idx {
		out[i] = done[j]
	}
	return out
}

// setupRepeats is how often the local workloads build their stack per
// run; gateway-mix, whose set-up persists a store's worth of results,
// builds it three times.
const setupRepeats = 7

// medianSetup builds a workload's stack n times and keeps the last one:
// setup_s is the median, so one slow start cannot move it.
func medianSetup[T any](n int, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var st T
	var times []float64
	for i := range n {
		if i > 0 {
			teardown(st)
		}
		t0 := host.now()
		s, err := build()
		if err != nil {
			return st, nil, err
		}
		times = append(times, host.since(t0).Seconds())
		st = s
	}
	return st, times, nil
}

// setEnsembleLatencies reports the latency metrics of a workload whose
// one client sends only ensembles: every request is an ensemble and the
// client waits for each, so job and interactive latencies are the
// ensemble latencies. slo_frac counts ensembles finished correctly
// within sloSeconds against all attempted; the seeds in wrong failed
// their output check.
func setEnsembleLatencies(res *result, shape ensembleShape, ph ensemblePhase, sloSeconds float64, wrong map[int64]bool) {
	lat := ph.latencies()
	ms := make([]float64, len(lat))
	within := 0
	for i, e := range ph.done {
		ms[i] = e.seconds * 1e3
		if e.seconds <= sloSeconds && !wrong[e.seed] {
			within++
		}
	}
	n := len(lat)
	res.e2e.setN("ensemble_s_p50", percentile(lat, 50), n)
	res.e2e.setN("ensemble_s_p90", percentile(lat, 90), n)
	res.e2e.setN("job_ms_p50", percentile(ms, 50), n)
	res.e2e.setN("job_ms_p90", percentile(ms, 90), n)
	res.e2e.setN("interactive_ms_p90", percentile(ms, 90), n)
	res.e2e.setN("slo_frac", float64(within)/float64(res.attempted), res.attempted)
	res.note("ensemble latency p95=%.4gs p99=%.4gs", percentile(lat, 95), percentile(lat, 99))
	noteSteal(res, ph.elapsed, ph.wall, ph.cells(shape))
	warnThin(res, "ensemble", n, 90)
}

// noteSteal notes how much of a phase's wall time the hypervisor stole,
// and the throughput on the wall clock, for comparison with cells_per_s.
func noteSteal(res *result, elapsed, wall time.Duration, cells int) {
	res.note("host time is %.1f%% of wall time (the rest was stolen); on the wall clock, %.4g cells/s",
		100*elapsed.Seconds()/wall.Seconds(), float64(cells)/wall.Seconds())
}

// warnThin notes a percentile with fewer than ten samples beyond it.
func warnThin(res *result, what string, n int, p float64) {
	if beyond(n, p) < 10 {
		res.note("WARNING: %s p%g has only %d samples beyond it (n=%d); lengthen the run", what, p, beyond(n, p), n)
	}
}
