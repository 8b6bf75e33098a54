package main

import (
	"math"
	"testing"

	"repro/internal/icegate"
	"repro/internal/icemesh"
	"repro/internal/icescope"
)

func TestParseExpositionReadsSamplesAndLabels(t *testing.T) {
	text := `# HELP x_total A counter.
# TYPE x_total counter
x_total 42
y{tenant="a\"b",lane="batch"} 1.5e-3
h_bucket{lane="batch",le="0.1"} 3
h_bucket{lane="batch",le="+Inf"} 5
h_bucket{lane="interactive",le="0.1"} 1
h_bucket{lane="interactive",le="+Inf"} 1
nan_gauge NaN
`
	e, err := parseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.value("x_total"); !ok || v != 42 {
		t.Errorf("x_total = %v %v", v, ok)
	}
	if v, ok := e.value("y", "tenant", `a"b`, "lane", "batch"); !ok || v != 1.5e-3 {
		t.Errorf("labeled y = %v %v", v, ok)
	}
	if _, ok := e.value("y", "lane", "interactive"); ok {
		t.Error("label filter matched the wrong series")
	}
	bs := e.buckets("h", "lane", "batch")
	if len(bs) != 2 || bs[0].le != 0.1 || bs[0].cum != 3 || !math.IsInf(bs[1].le, 1) || bs[1].cum != 5 {
		t.Errorf("batch ladder = %v", bs)
	}
	if v, _ := e.value("nan_gauge"); !math.IsNaN(v) {
		t.Errorf("nan_gauge = %v", v)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue", `x{a="1" 2`, `x{a=1} 2`, "x notanumber"} {
		if _, err := parseExposition(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

// The benchmark reads icegate's and icemesh's own /metrics text: the
// counters and histograms it depends on must parse.
func TestParseProgramExpositions(t *testing.T) {
	sched := icegate.NewScheduler(icegate.Config{})
	defer sched.Close()
	gw, err := parseExposition(sched.MetricsText())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"icegate_jobs_rejected_total", "icegate_cells_done_total", "icegate_sim_events_total",
		"icegate_wire_bytes_total", "icegate_wire_encode_ns", "icegate_cache_hits_total", "icegate_cache_misses_total",
		"icegate_cell_seconds_sum", "icegate_cell_seconds_count"} {
		if _, ok := gw.value(name); !ok {
			t.Errorf("icegate exposition lacks %s", name)
		}
	}
	if len(gw.buckets("icegate_cell_seconds")) == 0 || len(gw.buckets("icegate_cell_queue_wait_seconds")) == 0 {
		t.Error("icegate exposition lacks the fleet histograms")
	}

	coord := icemesh.NewCoordinator(icemesh.Config{})
	defer coord.Close()
	mesh, err := parseExposition(coord.MetricsText())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"icemesh_shards_assigned_total", "icemesh_cell_batches_total", "icemesh_shard_retries_total"} {
		if _, ok := mesh.value(name); !ok {
			t.Errorf("icemesh exposition lacks %s", name)
		}
	}

	reg := icescope.NewRegistry()
	obs := fineObs(reg, "perfbench_fleet")
	obs.CellSeconds.Observe(0.02)
	own, err := parseExposition(reg.Expose())
	if err != nil {
		t.Fatal(err)
	}
	if got := bucketQuantile(0.5, own.buckets("perfbench_fleet_cell_seconds")); math.Abs(got-0.02)/0.02 > 0.1 {
		t.Errorf("fine-ladder median of one 20ms sample = %g", got)
	}
}
