package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/icegate"
	"repro/internal/icescope"
	"repro/internal/icestore"
	"repro/internal/sim"
)

// gateway-mix: icegate over loopback HTTP with the disk store on and two
// tenants, each a closed-loop client on its own keep-alive connection.
// The clinician (interactive lane) mixes new X-ray sessions, repeats of
// results it already got, and first lookups of results persisted before
// a scheduler restart; the sweeper (batch lane) sends new pca-supervised
// ensembles. Every job is submitted, waited on through its NDJSON
// stream, and fetched from /result.

const (
	gwExecutors    = 2  // jobs running at once: one per lane keeps both moving
	gwPrefill      = 64 // results persisted before the restart
	gwMissChecks   = 3  // misses per tenant re-rendered locally per run
	gwOverheadJobs = 5  // equal-worker overhead comparison size
	gwStorePuts    = 10 // icestore replay sizes
	gwStoreGets    = 200
)

// gwSLOms is gateway-mix's fixed latency limit for one interactive job:
// about 1.4 times the p90 a loaded 2-core host gave (70 ms), so that a
// slower host alone does not move slo_frac. It is kept constant.
const gwSLOms = 100.0

// gwServer is one scheduler over the store directory, served over HTTP.
type gwServer struct {
	store  *icestore.Store
	sched  *icegate.Scheduler
	srv    *http.Server
	served chan struct{}
	base   string
	openMS float64 // icestore.Open, including its recovery scan
}

func startGateway(dir string, workers int) (*gwServer, error) {
	t0 := time.Now()
	st, err := icestore.Open(icestore.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	g := &gwServer{store: st, openMS: float64(time.Since(t0).Nanoseconds()) / 1e6, served: make(chan struct{})}
	g.sched = icegate.NewScheduler(icegate.Config{
		QueueDepth: 64, Executors: gwExecutors, Workers: workers, Store: st,
		Tenants: icegate.TenantsConfig{Tenants: map[string]icegate.Quota{tenantClin: {}, tenantSweep: {}}},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.sched.Close()
		return nil, err
	}
	g.base = "http://" + ln.Addr().String()
	g.srv = &http.Server{Handler: icegate.NewHandler(g.sched)}
	go func() {
		defer close(g.served)
		_ = g.srv.Serve(ln) // returns once the server closes
	}()
	return g, nil
}

// close stops the HTTP front end, waits for it, then the scheduler.
func (g *gwServer) close() {
	_ = g.srv.Close()
	<-g.served
	g.sched.Close()
}

func (g *gwServer) metrics() (exposition, error) { return parseExposition(g.sched.MetricsText()) }

// apiClient is one tenant's closed-loop client on one keep-alive
// connection.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string) *apiClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &apiClient{base: base, hc: &http.Client{Transport: tr}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// jobOut is one job as its client saw it.
type jobOut struct {
	sum              [sha256.Size]byte // of the result bytes; a run keeps digests, not tables
	cached           bool
	submitS, resultS float64 // POST /jobs and GET /result round trips
	seconds          float64 // submit to result bytes received
}

// errRefused marks a job the gateway declined (429).
var errRefused = errors.New("refused")

// run submits req, waits on the job's stream until it is terminal, and
// fetches the result, recording a span around each API call.
func (c *apiClient) run(req icegate.Request, parent icescope.Span) (jobOut, error) {
	var out jobOut
	t0 := host.now()
	sp := parent.Child("job " + req.Lane)
	defer sp.End()

	s := sp.Child("icegate POST /jobs")
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	var view icegate.View
	status, err := c.call(http.MethodPost, "/api/v1/jobs", body, func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(&view)
	})
	s.End()
	out.submitS = host.since(t0).Seconds()
	if err != nil {
		return out, err
	}
	if status == http.StatusTooManyRequests {
		return out, errRefused
	}
	if status != http.StatusCreated {
		return out, fmt.Errorf("submit: HTTP %d", status)
	}

	w := sp.Child("icegate GET /stream")
	var last struct {
		Done   bool   `json:"done"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	status, err = c.call(http.MethodGet, "/api/v1/jobs/"+view.ID+"/stream", nil, func(resp *http.Response) error {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				return err
			}
			if last.Done {
				return nil
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return errors.New("stream ended before the job did")
	})
	w.End()
	if err != nil {
		return out, err
	}
	if status != http.StatusOK || last.Status != string(icegate.StatusDone) {
		return out, fmt.Errorf("job %s ended %q (HTTP %d): %s", view.ID, last.Status, status, last.Error)
	}

	r := sp.Child("icegate GET /result")
	t1 := host.now()
	var cached string
	status, err = c.call(http.MethodGet, "/api/v1/jobs/"+view.ID+"/result", nil, func(resp *http.Response) error {
		cached = resp.Header.Get("X-Icegate-Cached")
		body, rerr := io.ReadAll(resp.Body)
		out.sum = sha256.Sum256(body)
		return rerr
	})
	r.End()
	end := host.now()
	out.resultS = host.between(t1, end).Seconds()
	out.seconds = host.between(t0, end).Seconds()
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("result of %s: HTTP %d", view.ID, status)
	}
	out.cached = cached == "true"
	return out, nil
}

// call makes one request, hands a 200 or 201 response to read, then
// drains and closes the body so the connection is reused.
func (c *apiClient) call(method, path string, body []byte, read func(*http.Response) error) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		err = read(resp)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// gwOpOut is one timed gateway job.
type gwOpOut struct {
	op  gwOp
	out jobOut
	ok  bool // served, with the expected cache status and bytes
}

// gwPhase is both clients' measured window.
type gwPhase struct {
	elapsed, wall time.Duration // host time and wall time
	ops           []gwOpOut
}

func (p *gwPhase) merge(q gwPhase) {
	p.elapsed += q.elapsed
	p.wall += q.wall
	p.ops = append(p.ops, q.ops...)
}

// missCells counts the simulated cells of the phase's completed misses.
func (p gwPhase) missCells() (total int, byScenario map[string]int) {
	byScenario = map[string]int{}
	for _, o := range p.ops {
		if o.ok && o.op.kind == opMiss {
			total += o.op.req.Cells
			byScenario[o.op.req.Scenario] += o.op.req.Cells
		}
	}
	return total, byScenario
}

func (p gwPhase) cellsPerS() float64 {
	n, _ := p.missCells()
	return float64(n) / p.elapsed.Seconds()
}

// gwRun is the measured state shared across a run's phases.
type gwRun struct {
	clin      *clinicianGen
	sweep     *sweeperGen
	first     map[string][sha256.Size]byte // digest of the first result served per key
	clinC     *apiClient
	sweepC    *apiClient
	res       *result
	firstLock sync.Mutex
}

// check classifies one finished job: the cache status must match the
// request's kind, and a hit must carry the bytes first served for its
// key.
func (g *gwRun) check(op gwOp, out jobOut, err error) bool {
	if err != nil {
		g.res.fail("%s %s seed=%d: %v", op.req.Tenant, op.kind, op.req.Seed, err)
		return false
	}
	if out.cached != (op.kind != opMiss) {
		g.res.fail("%s %s seed=%d: served with cached=%v", op.req.Tenant, op.kind, op.req.Seed, out.cached)
		return false
	}
	key := op.req.Key()
	g.firstLock.Lock()
	defer g.firstLock.Unlock()
	first, seen := g.first[key]
	switch {
	case op.kind == opMiss && seen:
		g.res.fail("%s miss seed=%d: key already served", op.req.Tenant, op.req.Seed)
		return false
	case op.kind == opMiss:
		g.first[key] = out.sum
	case !seen:
		g.res.fail("%s %s seed=%d: hit for a key never served", op.req.Tenant, op.kind, op.req.Seed)
		return false
	case first != out.sum:
		g.res.fail("%s %s seed=%d: bytes differ from the first result served", op.req.Tenant, op.kind, op.req.Seed)
		return false
	}
	return true
}

// phase runs both tenants' closed loops for d and waits for both.
func (g *gwRun) phase(d time.Duration, parent icescope.Span) gwPhase {
	var mu sync.Mutex
	var ph gwPhase
	var wg sync.WaitGroup
	t0 := host.now()
	loop := func(c *apiClient, next func() gwOp) {
		defer wg.Done()
		for time.Since(t0) < d {
			op := next()
			out, err := c.run(op.req, parent)
			ok := g.check(op, out, err)
			mu.Lock()
			ph.ops = append(ph.ops, gwOpOut{op, out, ok})
			mu.Unlock()
		}
	}
	wg.Add(2)
	go loop(g.clinC, g.clin.next)
	go loop(g.sweepC, g.sweep.next)
	wg.Wait()
	end := host.now()
	ph.elapsed, ph.wall = host.between(t0, end), end.Sub(t0)
	g.res.attempted += len(ph.ops)
	return ph
}

// prefill persists the clinician's prefill results through the API,
// split over both connections, recording the bytes first served.
func (g *gwRun) prefill() error {
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i, c := range []*apiClient{g.clinC, g.sweepC} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < len(g.clin.prefill); j += 2 {
				req := g.clin.prefill[j]
				out, err := c.run(req, icescope.Span{})
				if err != nil {
					errs <- fmt.Errorf("prefill seed=%d: %w", req.Seed, err)
					return
				}
				g.firstLock.Lock()
				g.first[req.Key()] = out.sum
				g.firstLock.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// localTable renders req the way the gateway must: a fleet run at the
// same worker count, reduced and rendered.
func localTable(ctx context.Context, req icegate.Request, workers int) (string, error) {
	shape := ensembleShape{scenario: req.Scenario, cells: req.Cells, params: fleet.Params{
		Duration: sim.Time(req.DurationS * float64(sim.Second)), Knobs: req.Knobs,
	}}
	out, err := runEnsemble(ctx, fleet.Runner{Workers: workers}, shape, req.Seed, icescope.Span{})
	return out.table, err
}

func runGateway(o options) (*result, error) {
	ctx := context.Background()
	res := newResult("icemesh.")
	root := filepath.Join(o.workdir, "perfbench-tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	g := &gwRun{
		clin:  newClinicianGen(o.seed, gwPrefill),
		sweep: newSweeperGen(o.seed),
		res:   res,
	}
	warm := newSeedStream(o.seed, streamWarmup)
	var opens []float64
	var dirs []string
	defer func() {
		for _, d := range dirs {
			_ = os.RemoveAll(d)
		}
	}()
	// Set-up: a fresh store, the prefill through the API, a scheduler
	// restart on the same store directory, and one warm-up job per lane.
	build := func() (*gwServer, error) {
		dir, err := os.MkdirTemp(root, "gateway-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		g.first = map[string][sha256.Size]byte{}
		first, err := startGateway(dir, o.workers)
		if err != nil {
			return nil, err
		}
		g.clinC, g.sweepC = newAPIClient(first.base), newAPIClient(first.base)
		err = g.prefill()
		g.clinC.close()
		g.sweepC.close()
		first.close()
		if err != nil {
			return nil, err
		}
		srv, err := startGateway(dir, o.workers)
		if err != nil {
			return nil, err
		}
		opens = append(opens, srv.openMS)
		g.clinC, g.sweepC = newAPIClient(srv.base), newAPIClient(srv.base)
		for _, req := range []icegate.Request{sweeperRequest(warm.next()), xrayRequest(warm.next())} {
			if _, err := g.clinC.run(req, icescope.Span{}); err != nil {
				srv.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return srv, nil
	}
	teardown := func(srv *gwServer) {
		g.clinC.close()
		g.sweepC.close()
		srv.close()
	}
	srv, setups, err := medianSetup(3, build, teardown)
	if err != nil {
		return nil, err
	}
	defer teardown(srv)

	if !o.traced {
		ph := g.phase(o.seconds, icescope.Span{})
		if err := g.checkMisses(ctx, o, ph); err != nil {
			return nil, err
		}
		res.e2e.setN("setup_s", percentile(setups, 50), len(setups))
		res.e2e.set("cells_per_s", ph.cellsPerS())
		setGatewayLatencies(res, ph)
		return res, nil
	}

	tr := newTrace("gateway-mix")
	before, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	plain, ph, proc := tracedPhases(o.seconds,
		func(d time.Duration) gwPhase { return g.phase(d, icescope.Span{}) },
		func(d time.Duration) gwPhase {
			sp := tr.Start(icescope.Span{}, "traced quarter")
			defer sp.End()
			return g.phase(d, sp)
		}, (*gwPhase).merge)
	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	if err := writeTrace(o, "gateway-mix", tr, res); err != nil {
		return nil, err
	}
	all := plain
	all.merge(ph)
	if err := g.checkMisses(ctx, o, all); err != nil {
		return nil, err
	}
	if err := g.setLayers(ctx, o, srv, all, ph, proc, before, after, opens, warm); err != nil {
		return nil, err
	}
	res.layer.set("trace.overhead_frac", 1-ph.cellsPerS()/plain.cellsPerS())
	return res, nil
}

// checkMisses re-renders a seeded sample of each tenant's misses with a
// local fleet run and fails any whose served bytes differ.
func (g *gwRun) checkMisses(ctx context.Context, o options, ph gwPhase) error {
	r := rand.New(rand.NewPCG(uint64(o.seed), streamSample))
	for _, tenant := range []string{tenantClin, tenantSweep} {
		var misses []gwOpOut
		for _, op := range ph.ops {
			if op.ok && op.op.kind == opMiss && op.op.req.Tenant == tenant {
				misses = append(misses, op)
			}
		}
		for i, j := range r.Perm(len(misses)) {
			if i == gwMissChecks {
				break
			}
			m := misses[j]
			want, err := localTable(ctx, m.op.req, o.workers)
			if err != nil {
				return fmt.Errorf("local render of %s seed=%d: %w", tenant, m.op.req.Seed, err)
			}
			if sha256.Sum256([]byte(want)) != m.out.sum {
				g.res.fail("%s miss seed=%d: served bytes differ from a local fleet render", tenant, m.op.req.Seed)
			}
		}
	}
	return nil
}

// setGatewayLatencies reports gateway-mix's latency metrics: ensembles
// are the sweeper's batch pca-supervised jobs, jobs are every job, and
// slo_frac counts interactive jobs served correctly within gwSLOms.
func setGatewayLatencies(res *result, ph gwPhase) {
	var ens, jobs, inter []float64
	attemptedInter, within := 0, 0
	for _, o := range ph.ops {
		interactive := o.op.req.Lane == icegate.LaneInteractive
		if interactive {
			attemptedInter++
		}
		if !o.ok {
			continue
		}
		ms := o.out.seconds * 1e3
		jobs = append(jobs, ms)
		if interactive {
			inter = append(inter, ms)
			if ms <= gwSLOms {
				within++
			}
		} else {
			ens = append(ens, o.out.seconds)
		}
	}
	res.e2e.setN("ensemble_s_p50", percentile(ens, 50), len(ens))
	res.e2e.setN("ensemble_s_p90", percentile(ens, 90), len(ens))
	res.e2e.setN("job_ms_p50", percentile(jobs, 50), len(jobs))
	res.e2e.setN("job_ms_p90", percentile(jobs, 90), len(jobs))
	res.e2e.setN("interactive_ms_p90", percentile(inter, 90), len(inter))
	res.e2e.setN("slo_frac", float64(within)/float64(max(attemptedInter, 1)), attemptedInter)
	res.note("interactive latency p95=%.4gms p99=%.4gms", percentile(inter, 95), percentile(inter, 99))
	cells, _ := ph.missCells()
	noteSteal(res, ph.elapsed, ph.wall, cells)
	warnThin(res, "sweeper ensemble", len(ens), 90)
	warnThin(res, "interactive job", len(inter), 90)
	warnThin(res, "job", len(jobs), 90)
}

// setLayers derives gateway-mix's per-layer metrics: the fleet and cell
// path from the gateway's own counters, the serving layer from the
// clients' timings and /metrics, the store from replays.
func (g *gwRun) setLayers(ctx context.Context, o options, srv *gwServer, all, traced gwPhase, proc procCounters,
	before, after exposition, opens []float64, warm *seedStream) error {
	vs := g.res.layer
	// The gateway's fleet histograms use icescope's default ladder, so
	// these percentiles interpolate within coarse buckets.
	cellNS := setFleetHists(vs, before, after, "icegate")
	tracedCells, _ := traced.missCells()
	vs.setAlloc(proc, tracedCells)

	allCells, byScenario := all.missCells()
	var buildSum float64
	for _, shape := range []ensembleShape{
		{scenario: fleet.ScenarioPCASupervised, cells: ensembleCells, params: fleet.Params{Duration: wardMinutes * sim.Minute}},
		{scenario: fleet.ScenarioXRayVentSync, cells: xrayCells},
	} {
		ms, err := buildMS(shape)
		if err != nil {
			return err
		}
		buildSum += ms * float64(byScenario[shape.scenario]/shape.cells)
	}
	jobs := byScenario[fleet.ScenarioPCASupervised]/ensembleCells + byScenario[fleet.ScenarioXRayVentSync]/xrayCells
	vs.set("fleet.build_ms", buildSum/float64(jobs))

	parts := map[string]cellOps{}
	for sc, d := range map[string]sim.Time{fleet.ScenarioPCASupervised: wardMinutes * sim.Minute, fleet.ScenarioXRayVentSync: 0} {
		ops, err := scenarioOps(sc, d)
		if err != nil {
			return err
		}
		parts[sc] = ops
	}
	ops := mix(parts, byScenario)
	cells := counterDelta(before, after, "icegate_cells_done_total")
	ops.events = counterDelta(before, after, "icegate_sim_events_total") / cells
	ops.wireBytes = counterDelta(before, after, "icegate_wire_bytes_total") / cells
	ops.encodeNS = counterDelta(before, after, "icegate_wire_encode_ns") / cells
	if int(cells) != allCells {
		g.res.fail("gateway counted %g cells, the clients %d", cells, allCells)
	}
	if err := vs.replayCellPath(ops, cellNS); err != nil {
		return err
	}

	var submit, result, hits []float64
	for _, op := range traced.ops {
		if !op.ok {
			continue
		}
		submit = append(submit, op.out.submitS*1e3)
		result = append(result, op.out.resultS*1e3)
		if op.op.kind != opMiss {
			hits = append(hits, op.out.seconds*1e3)
		}
	}
	vs.set("icegate.submit_ms_p50", percentile(submit, 50))
	vs.set("icegate.result_ms_p50", percentile(result, 50))
	vs.set("icegate.hit_ms_p50", percentile(hits, 50))
	for _, lane := range []string{icegate.LaneInteractive, icegate.LaneBatch} {
		b := delta(after.buckets("icegate_queue_wait_seconds", "lane", lane), before.buckets("icegate_queue_wait_seconds", "lane", lane))
		vs.set("icegate.queue_wait_ms_p90_"+lane, 1e3*bucketQuantile(0.9, b))
	}
	hitsN := counterDelta(before, after, "icegate_cache_hits_total")
	vs.set("icegate.cache_hit_ratio", hitsN/(hitsN+counterDelta(before, after, "icegate_cache_misses_total")))
	storeHits := counterDelta(before, after, "icegate_store_hits_total")
	vs.set("icegate.store_hit_ratio", storeHits/(storeHits+counterDelta(before, after, "icegate_store_misses_total")))
	rejected, _ := after.value("icegate_jobs_rejected_total")
	vs.set("icegate.rejected", rejected)
	ratio, err := g.overhead(ctx, o, warm)
	if err != nil {
		return err
	}
	vs.set("icegate.overhead_ratio", ratio)

	vs.set("icestore.open_ms", percentile(opens, 50))
	st := srv.store.Stats()
	return storeReplay(vs, filepath.Join(o.workdir, "perfbench-tmp"), int(st.Bytes/int64(max(st.Entries, 1))))
}

// overhead compares fresh sweeper-shaped misses served alone by the
// gateway with direct fleet runs of the same requests at the gateway's
// worker count: the ratio of median latencies, gateway over fleet.
func (g *gwRun) overhead(ctx context.Context, o options, seeds *seedStream) (float64, error) {
	var viaGateway, direct []float64
	for range gwOverheadJobs {
		req := sweeperRequest(seeds.next())
		out, err := g.sweepC.run(req, icescope.Span{})
		if err != nil {
			return 0, fmt.Errorf("overhead job: %w", err)
		}
		t0 := host.now()
		table, err := localTable(ctx, req, o.workers)
		if err != nil {
			return 0, err
		}
		direct = append(direct, host.since(t0).Seconds())
		viaGateway = append(viaGateway, out.seconds)
		if sha256.Sum256([]byte(table)) != out.sum {
			g.res.fail("overhead job seed=%d: gateway and fleet bytes differ", req.Seed)
		}
	}
	return percentile(viaGateway, 50) / percentile(direct, 50), nil
}

// storeReplay times public Put and Get on a scratch store with payloads
// of size bytes (the gateway's mean stored result).
func storeReplay(vs *values, root string, size int) error {
	dir, err := os.MkdirTemp(root, "store-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := icestore.Open(icestore.Config{Dir: dir})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("r"), size)
	key := func(i int) string { return fmt.Sprintf("scenario/replay?seed=%d", i) }
	puts := 0
	putNS, err := perOp(replayRounds, gwStorePuts, func(n int) error {
		for range n {
			if err := st.Put(key(puts), payload); err != nil {
				return err
			}
			puts++
		}
		return nil
	})
	if err != nil {
		return err
	}
	gets := 0
	getNS, err := perOp(replayRounds, gwStoreGets, func(n int) error {
		for range n {
			if _, ok := st.Get(key(gets % puts)); !ok {
				return fmt.Errorf("store replay: key %q missing", key(gets%puts))
			}
			gets++
		}
		return nil
	})
	if err != nil {
		return err
	}
	vs.set("icestore.put_ms", putNS/1e6)
	vs.set("icestore.get_us", getNS/1e3)
	return nil
}
