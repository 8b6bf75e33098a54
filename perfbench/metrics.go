package main

import (
	"math"
	"strings"
)

// The metric catalogue. Every run reports every metric of its kind, in
// this order: --trace 0 the end-to-end table, --trace 1 the per-layer
// table. BENCHMARK.json lists the same names and units (a test holds the
// two in step).

type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ensemble_s_p50", "s"},
	{"ensemble_s_p90", "s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"interactive_ms_p90", "ms"},
	{"slo_frac", "frac"},
}

var layerMetrics = []metricDef{
	{"fleet.build_ms", "ms"},
	{"fleet.cell_ms_p50", "ms"},
	{"fleet.cell_ms_p90", "ms"},
	{"fleet.queue_wait_ms_p90", "ms"},
	{"fleet.allocs_per_cell", "count"},
	{"fleet.alloc_kb_per_cell", "kB"},
	{"fleet.gc_cpu_frac", "frac"},
	{"sim.events_per_cell", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.share", "frac"},
	{"sigproc.synth_ns_per_sample", "ns"},
	{"sigproc.window_us", "us"},
	{"sigproc.share", "frac"},
	{"physio.step_ns", "ns"},
	{"physio.share", "frac"},
	{"mednet.ns_per_datagram", "ns"},
	{"icewire.ns_per_envelope", "ns"},
	{"icewire.bytes_per_cell", "B"},
	{"icewire.encode_share", "frac"},
	{"core.publish_ns", "ns"},
	{"core.command_us", "us"},
	{"control.update_ns", "ns"},
	{"cell.unattributed_share", "frac"},
	{"icegate.submit_ms_p50", "ms"},
	{"icegate.result_ms_p50", "ms"},
	{"icegate.hit_ms_p50", "ms"},
	{"icegate.queue_wait_ms_p90_interactive", "ms"},
	{"icegate.queue_wait_ms_p90_batch", "ms"},
	{"icegate.cache_hit_ratio", "ratio"},
	{"icegate.store_hit_ratio", "ratio"},
	{"icegate.rejected", "count"},
	{"icegate.overhead_ratio", "ratio"},
	{"icestore.open_ms", "ms"},
	{"icestore.put_ms", "ms"},
	{"icestore.get_us", "us"},
	{"icemesh.wait_nodes_ms", "ms"},
	{"icemesh.shards_per_ensemble", "count"},
	{"icemesh.batches_per_ensemble", "count"},
	{"icemesh.shard_retries", "count"},
	{"icemesh.overhead_ratio", "ratio"},
	{"trace.overhead_frac", "frac"},
}

// values collects one run's numbers by metric name; n holds sample
// counts for percentiles.
type values struct {
	v map[string]float64
	n map[string]int
}

func newValues() *values { return &values{map[string]float64{}, map[string]int{}} }

func (vs *values) set(name string, v float64) { vs.v[name] = v }

func (vs *values) setN(name string, v float64, n int) { vs.v[name], vs.n[name] = v, n }

// emit appends the catalogue's metrics to out in order. Layers the
// workload never calls (names under an absent prefix) report 0: the
// workload spends nothing in them. Any other metric left unset reports
// NaN, which fails the run.
func (vs *values) emit(defs []metricDef, absent []string) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		v, ok := vs.v[d.name]
		if !ok {
			v = math.NaN()
			for _, p := range absent {
				if strings.HasPrefix(d.name, p) {
					v = 0
				}
			}
		}
		out = append(out, metric{d.name, d.unit, v, vs.n[d.name]})
	}
	return out
}
