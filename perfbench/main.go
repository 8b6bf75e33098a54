// Command perfbench is the repository benchmark. It drives the
// simulator only through its public packages, on one of three seeded
// workloads, checks every output, and prints each metric by name with
// its unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload pca-ward --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports the per-layer metrics. See
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/icescope"
)

// options is one invocation's configuration.
type options struct {
	seed    int64
	seconds time.Duration // the measured time; a traced run splits it in two
	traced  bool
	workdir string // scratch space inside the checkout (stores, traces)
	workers int    // nproc: fleet pool width, client connections
}

// metric is one reported number. n is the sample count behind a
// percentile (0 for anything else).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// result is what a workload run reports.
type result struct {
	mu                sync.Mutex // guards failed and problems: fail runs on client goroutines
	attempted, failed int
	problems          []string
	e2e, layer        *values
	absent            []string // per-layer prefixes of layers the workload never calls
	notes             []string // extra lines for the human-readable table
}

func newResult(absent ...string) *result {
	return &result{e2e: newValues(), layer: newValues(), absent: absent}
}

// fail counts one failed, refused or wrong-output operation.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*result, error){
	"pca-ward":    runWard,
	"gateway-mix": runGateway,
	"mesh-probe":  runMesh,
}

func main() {
	workload := flag.String("workload", "", "pca-ward, gateway-mix or mesh-probe")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for stores and traces")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload pca-ward|gateway-mix|mesh-probe, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workdir: *workdir,
		workers: runtime.NumCPU(),
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !o.traced {
		res.e2e.set("peak_rss_mb", peakRSSMB())
	}
	if err := report(os.Stdout, *workload, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// report prints the human-readable table, then the JSON result line.
func report(w *os.File, workload string, o options, res *result) error {
	kind, ms := "end-to-end", res.e2e.emit(e2eMetrics, nil)
	if o.traced {
		kind, ms = "per-layer", res.layer.emit(layerMetrics, res.absent)
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g workers=%d (%s)\n", workload, o.seed, o.seconds.Seconds(), o.workers, kind)
	out := map[string]any{}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A metric the run could not measure is a failed run, not a
			// number: JSON has no NaN, and a stand-in would pass the gate.
			res.fail("metric %s was not measured", m.name)
			v = 0
		}
		line := fmt.Sprintf("  %-36s %14.6g %s", m.name, v, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintln(w, line)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "  # "+n)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "  ! "+p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// procCounters samples the runtime's cumulative allocation and CPU
// counters, so a phase can report its own deltas.
type procCounters struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
}

func readProcCounters() procCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return procCounters{val(0), val(1), val(2), val(3)}
}

// sub is the change from an earlier reading to c.
func (c procCounters) sub(earlier procCounters) procCounters {
	return procCounters{c.allocs - earlier.allocs, c.allocBytes - earlier.allocBytes, c.gcCPU - earlier.gcCPU, c.totalCPU - earlier.totalCPU}
}

func (c procCounters) add(d procCounters) procCounters {
	return procCounters{c.allocs + d.allocs, c.allocBytes + d.allocBytes, c.gcCPU + d.gcCPU, c.totalCPU + d.totalCPU}
}

// setAlloc records the fleet layer's allocation and GC figures from the
// counters' change d over a span of time that completed cells cells.
func (vs *values) setAlloc(d procCounters, cells int) {
	c := float64(cells)
	vs.set("fleet.allocs_per_cell", d.allocs/c)
	vs.set("fleet.alloc_kb_per_cell", d.allocBytes/1024/c)
	vs.set("fleet.gc_cpu_frac", d.gcCPU/d.totalCPU)
}

// newTrace starts the traced phase's span recorder. Spans stay in
// memory until writeTrace exports them when the run ends.
func newTrace(workload string) *icescope.Trace {
	tr := icescope.NewTrace("perfbench " + workload)
	tr.SetMaxSpans(1 << 20)
	return tr
}

// writeTrace exports the traced phase as Chrome trace-event JSON under
// the work directory and notes each span name's share of self time.
func writeTrace(o options, workload string, tr *icescope.Trace, res *result) error {
	dir := o.workdir + "/traces"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s-seed%d.json", dir, workload, o.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := map[string]time.Duration{}
	total := time.Duration(0)
	for name, d := range tr.SelfTimes() {
		self[normalizeSpan(name)] += d
		total += d
	}
	res.note("trace written to %s (%d spans dropped)", path, tr.Dropped())
	for _, name := range sortedKeys(self) {
		if share := self[name].Seconds() / total.Seconds(); share >= 0.001 {
			res.note("self time %-30s %6.2f%%", name, 100*share)
		}
	}
	return nil
}

// normalizeSpan drops instance tokens (ids, ranges) from a span name.
func normalizeSpan(name string) string {
	var kept []string
	for _, tok := range strings.Fields(name) {
		if !strings.ContainsAny(tok, "0123456789") {
			kept = append(kept, tok)
		}
	}
	return strings.Join(kept, " ")
}
