package fleet

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// The reserved engine counter must be lifted out of the metrics map into
// Result.Events, so reduced tables never see it.
func TestRunnerLiftsSimEventsMetric(t *testing.T) {
	spec := Spec{
		Name: "lift", Seed: 1, Cells: 3,
		Run: func(c Cell) (Metrics, error) {
			return Metrics{"x": float64(c.Index), MetricSimEvents: float64(100 + c.Index)}, nil
		},
	}
	res, err := Runner{Workers: 2}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if _, ok := r.Metrics[MetricSimEvents]; ok {
			t.Fatalf("cell %d: %q leaked into metrics", r.Cell.Index, MetricSimEvents)
		}
		if want := uint64(100 + r.Cell.Index); r.Events != want {
			t.Fatalf("cell %d: Events = %d, want %d", r.Cell.Index, r.Events, want)
		}
	}
	sum := Reduce(res)
	if sum.Events != 303 {
		t.Fatalf("Summary.Events = %d, want 303", sum.Events)
	}
	if strings.Contains(sum.String(), MetricSimEvents) {
		t.Fatalf("reduced table mentions %q:\n%s", MetricSimEvents, sum)
	}
}

// Real scenario cells must actually report their kernel totals.
func TestCatalogCellsReportEvents(t *testing.T) {
	for _, name := range []string{ScenarioPCASupervised, ScenarioXRayVentSync} {
		spec, err := Build(name, Params{Seed: 42, Cells: 1, Duration: 5 * sim.Minute})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Runner{}.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Events == 0 {
			t.Fatalf("%s cell reported zero kernel events", name)
		}
	}
}

// Pooled per-worker scratch must not perturb results: the same ensemble
// reduced twice on the same Runner (buffers warm on the second pass) and
// at different worker counts stays byte-identical, and a second ensemble
// on a reused Summary matches a fresh reduction.
func TestScratchPoolingPreservesDeterminism(t *testing.T) {
	build := func() Spec {
		spec, err := Build(ScenarioPCASupervised, Params{Seed: 7, Cells: 4, Duration: 10 * sim.Minute})
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	var renders []string
	sum := NewSummary()
	for pass := 0; pass < 2; pass++ {
		for _, workers := range []int{1, 3} {
			res, err := Runner{Workers: workers}.Run(build())
			if err != nil {
				t.Fatal(err)
			}
			sum.Reset()
			sum.Add(res)
			renders = append(renders, sum.String())
		}
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Fatalf("render %d diverged:\n%s\nvs\n%s", i, renders[i], renders[0])
		}
	}
	if fresh := Reduce(mustRun(t, build())); fresh.String() != renders[0] {
		t.Fatalf("pooled summary diverged from fresh Reduce:\n%s\nvs\n%s", renders[0], fresh)
	}
}

func mustRun(t *testing.T, spec Spec) []Result {
	t.Helper()
	res, err := Runner{Workers: 2}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Cell.Trace outside a runner hands out fresh traces (no pooling, no
// sharing) so scenario code works unchanged in standalone use.
func TestCellTraceStandalone(t *testing.T) {
	c := Cell{Index: 0, Seed: 1}
	a, b := c.Trace(), c.Trace()
	if a == nil || b == nil || a == b {
		t.Fatal("standalone Cell.Trace must allocate distinct traces")
	}
}

// A Summary being reused across ensembles with different metric sets must
// not leak metrics from the previous ensemble.
func TestSummaryResetDropsStaleMetrics(t *testing.T) {
	sum := NewSummary()
	sum.Add([]Result{{Metrics: Metrics{"old": 1}}})
	sum.Reset()
	sum.Add([]Result{{Metrics: Metrics{"new": 2}}})
	names := sum.Names()
	if len(names) != 1 || names[0] != "new" {
		t.Fatalf("Names after Reset = %v, want [new]", names)
	}
	if sum.Count("old") != 0 {
		t.Fatal("stale metric retained samples")
	}
	if sum.Values("old") != nil {
		t.Fatal("Values for a stale metric must be nil (absent)")
	}
}

// A warm worker builds every cell from scratch: each cell constructs its
// kernel, network, manager, devices and patient anew, while the pooled
// trace keeps its sample buffers. The budgets sit about 1.4x above the
// measured counts, loose enough for runtime-version noise but tight
// enough that a new per-event or per-sample allocation fails loudly.
func TestAllocsCellFromScratch(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	for _, tc := range []struct {
		scenario string
		p        Params
		budget   float64
	}{
		{ScenarioPCASupervised, Params{Seed: 42, Cells: 1, Duration: 30 * sim.Minute}, 260},
		{ScenarioXRayVentSync, Params{Seed: 42, Cells: 1}, 400},
		{ScenarioTeleICUProbe, Params{Seed: 42, Cells: 1, Duration: sim.Minute}, 240},
	} {
		spec, err := Build(tc.scenario, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		scratch := &Scratch{}
		i := 0
		cell := func() {
			if res := (Runner{}).runCell(spec, i, scratch, nil); res.Err != nil {
				t.Fatal(res.Err)
			}
			i++
		}
		cell() // warm: the first cells grow the pooled trace buffers
		cell()
		got := testing.AllocsPerRun(5, cell)
		t.Logf("%s: %.0f allocs per cell (budget %.0f)", tc.scenario, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs per cell, budget %.0f", tc.scenario, got, tc.budget)
		}
	}
}
