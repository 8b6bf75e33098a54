package icegate

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/icescope"
)

// The trace endpoint's contract end to end: untraced jobs 404, live
// traced jobs 202, terminal traced jobs return a text tree whose spans
// cover the job lifecycle, and ?format=chrome yields valid trace-event
// JSON — all without changing the rendered table (trace is a serving
// knob, so the traced request is even served from the untraced one's
// cache line).
func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 2})

	plain := Request{Scenario: fleet.ScenarioPCASupervised, Seed: 17, Cells: 2, DurationS: 300}
	v, code := submit(t, ts, plain)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	if v = waitDone(t, ts, v.ID); v.Status != StatusDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	if code, _ := get(t, ts, "/api/v1/jobs/"+v.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("trace of untraced job = %d, want 404", code)
	}
	plainTable := fetchResult(t, ts, v.ID)

	traced := plain
	traced.Trace = true
	tv, code := submit(t, ts, traced)
	if code != http.StatusCreated {
		t.Fatalf("traced submit = %d", code)
	}
	if tv = waitDone(t, ts, tv.ID); tv.Status != StatusDone {
		t.Fatalf("traced job ended %s: %s", tv.Status, tv.Error)
	}
	// Trace is not part of result identity: same cache line, same bytes.
	if !tv.Cached {
		t.Error("traced resubmission missed the cache — Trace leaked into the key")
	}
	if got := fetchResult(t, ts, tv.ID); got != plainTable {
		t.Errorf("traced table differs from untraced:\n%s\nvs\n%s", got, plainTable)
	}

	code, text := get(t, ts, "/api/v1/jobs/"+tv.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace fetch = %d: %s", code, text)
	}
	for _, want := range []string{"job " + tv.ID, "queued", "cache hit"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace tree missing %q:\n%s", want, text)
		}
	}

	code, raw := get(t, ts, "/api/v1/jobs/"+tv.ID+"/trace?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome trace fetch = %d", code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(raw), &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, raw)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

// An uncached traced job records the executor-side spans — run, build
// spec, merge, and the fleet's per-cell leaves — not just lifecycle
// bookkeeping.
func TestJobTraceRecordsExecutionSpans(t *testing.T) {
	_, ts := newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 2})
	req := Request{Scenario: fleet.ScenarioPCASupervised, Seed: 23, Cells: 3, DurationS: 300, Trace: true}
	v, code := submit(t, ts, req)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	if v = waitDone(t, ts, v.ID); v.Status != StatusDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	code, text := get(t, ts, "/api/v1/jobs/"+v.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace fetch = %d", code)
	}
	for _, want := range []string{"run", "build spec", "merge", "cell run"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace missing execution span %q:\n%s", want, text)
		}
	}
}

// TraceSample force-traces every Nth submission without clients opting
// in: with N=2, the 2nd and 4th jobs expose a trace and the others 404.
// Sampling must not leak into result identity — the sampled job is
// served from the unsampled one's cache line.
func TestTraceSampleForcesEveryNthJob(t *testing.T) {
	_, ts := newTestGateway(t, Config{QueueDepth: 8, Executors: 1, Workers: 2, TraceSample: 2})

	wantTraced := map[int]bool{1: false, 2: true, 3: false, 4: true}
	for i := 1; i <= 4; i++ {
		// Distinct seeds except job 3, which repeats job 1 (cache-hit path).
		seed := int64(40 + i)
		if i == 3 {
			seed = 41
		}
		req := Request{Scenario: fleet.ScenarioPCASupervised, Seed: seed, Cells: 1, DurationS: 300}
		v, code := submit(t, ts, req)
		if code != http.StatusCreated {
			t.Fatalf("submit %d = %d", i, code)
		}
		if v = waitDone(t, ts, v.ID); v.Status != StatusDone {
			t.Fatalf("job %d ended %s: %s", i, v.Status, v.Error)
		}
		code, _ = get(t, ts, "/api/v1/jobs/"+v.ID+"/trace")
		if wantTraced[i] && code != http.StatusOK {
			t.Errorf("sampled job %d trace = %d, want 200", i, code)
		}
		if !wantTraced[i] && code != http.StatusNotFound {
			t.Errorf("unsampled job %d trace = %d, want 404", i, code)
		}
		if i == 3 && !v.Cached {
			t.Error("unsampled repeat of job 1 missed the cache — sampling leaked into the key")
		}
	}
}

// The gateway's full exposition — registry plus any backend suffix —
// must satisfy the icescope linter, and the hand-picked lines CI greps
// for must survive the registry rewrite byte for byte.
func TestGatewayExpositionLints(t *testing.T) {
	s, ts := newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 2})
	req := Request{Scenario: fleet.ScenarioPCASupervised, Seed: 29, Cells: 1, DurationS: 300}
	v, code := submit(t, ts, req)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, v.ID)
	if v, _ = submit(t, ts, req); !v.Cached {
		t.Fatal("resubmission not cached")
	}

	text := s.renderMetrics()
	if err := icescope.Lint(text); err != nil {
		t.Fatalf("gateway exposition fails lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"icegate_cache_hits_total 1\n",
		"icegate_jobs_done_total 2\n",
		`icegate_backend{name="local"} 1` + "\n",
		"# TYPE icegate_cell_seconds histogram\n",
		"# HELP icegate_queue_depth ",
		"icescope_spans_dropped_total 0\n",
		"icescope_span_events_dropped_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// The events endpoint's contract end to end: unknown jobs and untraced
// jobs 404, a queued/running traced job streams span events live (the
// lifecycle spans arrive while the job is still running), a terminal
// job replays its whole stream and closes with a done line, and a
// cache-hit job streams its replay without erroring — all without
// changing the rendered table even with a subscriber attached mid-run.
func TestJobEventsEndpoint(t *testing.T) {
	s, ts := newTestGateway(t, Config{QueueDepth: 4, Executors: 1, Workers: 2})

	if code, _ := get(t, ts, "/api/v1/jobs/nope/events"); code != http.StatusNotFound {
		t.Fatalf("events of unknown job = %d, want 404", code)
	}

	plain := Request{Scenario: fleet.ScenarioPCASupervised, Seed: 31, Cells: 2, DurationS: 300}
	v, code := submit(t, ts, plain)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	if v = waitDone(t, ts, v.ID); v.Status != StatusDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	if code, _ := get(t, ts, "/api/v1/jobs/"+v.ID+"/events"); code != http.StatusNotFound {
		t.Fatalf("events of untraced job = %d, want 404", code)
	}
	plainTable := fetchResult(t, ts, v.ID)

	// Hold the next job in "running" so the live half of the stream is
	// observable deterministically.
	running := make(chan struct{})
	release := make(chan struct{})
	s.hooks.jobRunning = func(*Job) { close(running); <-release }

	traced := plain
	traced.Seed = 37 // fresh cache line: the job must actually execute
	traced.Trace = true
	tv, code := submit(t, ts, traced)
	if code != http.StatusCreated {
		t.Fatalf("traced submit = %d", code)
	}
	<-running

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + tv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream = %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	readLine := func() EventLine {
		t.Helper()
		var l EventLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("events stream decode: %v", err)
		}
		return l
	}
	// The job is running, not terminal: its lifecycle events must be on
	// the stream already. start(job), start(queued), end(queued),
	// start(run).
	wantLive := []struct{ kind, name string }{
		{"start", "job " + tv.ID}, {"start", "queued"}, {"end", "queued"}, {"start", "run"},
	}
	for i, want := range wantLive {
		l := readLine()
		if l.Kind != want.kind || l.Name != want.name {
			t.Fatalf("live event %d = %s %q, want %s %q", i, l.Kind, l.Name, want.kind, want.name)
		}
		if l.Done {
			t.Fatalf("stream terminated while the job was running: %+v", l)
		}
	}
	close(release)
	// Drain to the terminal line: the stream must close itself with the
	// final status once the job is terminal.
	var last EventLine
	for {
		l := readLine()
		if l.Done {
			last = l
			break
		}
	}
	if last.Status != StatusDone {
		t.Fatalf("terminal event line status = %s, want done", last.Status)
	}
	if err := dec.Decode(&EventLine{}); err != io.EOF {
		t.Fatalf("stream not closed after the done line: %v", err)
	}

	// Byte-identity with a subscriber attached: same table as untraced.
	if tv = waitDone(t, ts, tv.ID); tv.Status != StatusDone {
		t.Fatalf("traced job ended %s: %s", tv.Status, tv.Error)
	}
	s.hooks.jobRunning = nil
	tracedPlain := plain
	tracedPlain.Seed = 37
	pv, _ := submit(t, ts, tracedPlain)
	if pv = waitDone(t, ts, pv.ID); pv.Status != StatusDone {
		t.Fatalf("comparison job ended %s", pv.Status)
	}
	if got, want := fetchResult(t, ts, tv.ID), fetchResult(t, ts, pv.ID); got != want {
		t.Errorf("traced table differs from untraced with a subscriber attached:\n%s\nvs\n%s", got, want)
	}
	_ = plainTable // tables differ across seeds; identity is per-request

	// Terminal job: replay and close. Every event arrives at once, the
	// last line is the terminal record.
	code, body := get(t, ts, "/api/v1/jobs/"+tv.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("terminal events = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 5 {
		t.Fatalf("terminal replay has %d lines, want >= 5:\n%s", len(lines), body)
	}
	var terminal EventLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &terminal); err != nil {
		t.Fatal(err)
	}
	if !terminal.Done || terminal.Status != StatusDone {
		t.Fatalf("terminal replay last line = %+v", terminal)
	}

	// Cache hit: the identical traced request finishes at Submit; its
	// events stream replays and closes without erroring.
	cv, code := submit(t, ts, traced)
	if code != http.StatusCreated {
		t.Fatalf("cache-hit submit = %d", code)
	}
	if !cv.Cached {
		t.Fatal("resubmission missed the cache")
	}
	code, body = get(t, ts, "/api/v1/jobs/"+cv.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("cache-hit events = %d", code)
	}
	lines = strings.Split(strings.TrimSpace(body), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &terminal); err != nil {
		t.Fatal(err)
	}
	if !terminal.Done || terminal.Status != StatusDone {
		t.Fatalf("cache-hit events last line = %+v", terminal)
	}
	var sawCacheHit bool
	for _, ln := range lines {
		var l EventLine
		_ = json.Unmarshal([]byte(ln), &l)
		if l.Kind == "instant" && l.Name == "cache hit" {
			sawCacheHit = true
		}
	}
	if !sawCacheHit {
		t.Errorf("cache-hit replay missing the 'cache hit' instant:\n%s", body)
	}
}

// get fetches a path from the test server and returns (status, body).
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// fetchResult returns the rendered table of a done job.
func fetchResult(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	code, body := get(t, ts, "/api/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result fetch = %d: %s", code, body)
	}
	return body
}
