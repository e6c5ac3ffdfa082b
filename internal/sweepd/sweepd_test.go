package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"latsim/internal/core"
	"latsim/internal/machine"
	"latsim/internal/obs"
	"latsim/internal/obs/diff"
	"latsim/internal/obs/span"
	"latsim/internal/runner"
	"latsim/internal/sweepd/api"
)

// fakeExec returns a fast deterministic ExecFunc; execs counts real
// executions. Obs-enabled jobs carry a small report whose stall
// waterfall scales with the configured processor count, so sweeps over
// different configurations produce genuinely different observability.
func fakeExec(execs *atomic.Int64) runner.ExecFunc {
	return func(ctx context.Context, j runner.Job) (*machine.Result, error) {
		execs.Add(1)
		res := &machine.Result{AppName: j.App, Cfg: j.Cfg, Elapsed: 1000}
		if j.Obs != nil {
			stall := 100 * uint64(j.Cfg.Procs)
			every := uint64(1)
			if j.Obs.SpanRate > 0 {
				every = uint64(1/j.Obs.SpanRate + 0.5)
			}
			res.Obs = &obs.Report{
				Elapsed: 1000,
				Procs:   j.Cfg.Procs,
				BucketCycles: []obs.NamedSeries{
					{Name: "busy", Values: []uint64{40, 50}},
				},
				Spans: &span.Trace{Every: every, Seen: 100, Sampled: 100 / every},
				Waterfall: &span.Waterfall{
					Total: []span.BucketWaterfall{{
						Bucket:      "read",
						StallCycles: stall,
						Segments:    []span.SegmentShare{{Kind: "network", Attributed: stall}},
						Dominant:    "network",
					}},
					Inval: &span.InvalAccounting{Org: "full-map", Sent: 10},
				},
			}
		}
		return res, nil
	}
}

// newTestService boots a service over an httptest server. Closing is
// registered on t.Cleanup.
func newTestService(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// submit POSTs a sweep and returns its id.
func submit(t *testing.T, base, body string) string {
	t.Helper()
	code, b := post(t, base+"/v1/sweeps", body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d %s", code, b)
	}
	var c api.Created
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c.ID
}

// waitTerminal polls a sweep until it leaves queued/running.
func waitTerminal(t *testing.T, base, id string) *api.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, b := get(t, base+"/v1/sweeps/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET status: %d %s", code, b)
		}
		var st api.SweepStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			return &st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobSweepLifecycle(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestService(t, Options{Workers: 2, Exec: fakeExec(&execs)})

	id := submit(t, ts.URL, `{"name": "pair", "jobs": [
		{"app": "LU", "config": {"Procs": 4}},
		{"app": "MP3D"}
	]}`)
	st := waitTerminal(t, ts.URL, id)
	if st.State != api.StateDone || st.Done != 2 || st.Total != 2 {
		t.Fatalf("status: %+v", st)
	}
	if st.Name != "pair" || st.Created == "" || st.Started == "" || st.Finished == "" {
		t.Fatalf("metadata missing: %+v", st)
	}
	for _, js := range st.Jobs {
		if js.State != api.JobDone || js.Key == "" || js.ElapsedCycles != 1000 {
			t.Fatalf("job: %+v", js)
		}
	}

	code, b := get(t, ts.URL+"/v1/sweeps/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, b)
	}
	var doc struct {
		Jobs []struct {
			App    string          `json:"app"`
			Config string          `json:"config"`
			Result json.RawMessage `json:"result"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Jobs) != 2 || doc.Jobs[0].App != "LU" || doc.Jobs[1].App != "MP3D" {
		t.Fatalf("results doc: %s", b)
	}
	if doc.Jobs[0].Result == nil || string(doc.Jobs[0].Result) == "null" {
		t.Fatal("job result missing from document")
	}
	if execs.Load() != 2 {
		t.Fatalf("executions = %d, want 2", execs.Load())
	}
}

// Two clients concurrently submitting identical sweeps must execute
// each distinct job exactly once: the shared engine's singleflight
// memo coalesces them.
func TestDedupAcrossConcurrentClients(t *testing.T) {
	var execs atomic.Int64
	svc, ts := newTestService(t, Options{Workers: 4, Exec: fakeExec(&execs)})

	spec := `{"jobs": [
		{"app": "LU"}, {"app": "MP3D"}, {"app": "PTHOR"}
	]}`
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, ts.URL, spec)
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if st := waitTerminal(t, ts.URL, id); st.State != api.StateDone {
			t.Fatalf("sweep %s: %+v", id, st)
		}
	}
	if execs.Load() != 3 {
		t.Fatalf("executions = %d, want 3 (identical submissions must dedup)", execs.Load())
	}
	m := svc.Engine().Metrics()
	if m.Deduped != 3 {
		t.Fatalf("Deduped = %d, want 3", m.Deduped)
	}
	// The stats endpoint surfaces the same counters.
	code, b := get(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, b)
	}
	var stats api.Stats
	if err := json.Unmarshal(b, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 3 || stats.Deduped != 3 {
		t.Fatalf("stats: %+v", stats)
	}
}

// A job that times out fails its sweep without being re-run, and the
// sweep serves no result.
func TestTimedOutJobFailsSweep(t *testing.T) {
	var execs atomic.Int64
	exec := func(ctx context.Context, j runner.Job) (*machine.Result, error) {
		execs.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, ts := newTestService(t, Options{Workers: 1, Timeout: 10 * time.Millisecond, Exec: exec})
	id := submit(t, ts.URL, `{"jobs": [{"app": "LU"}]}`)
	st := waitTerminal(t, ts.URL, id)
	if st.State != api.StateFailed || !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("status: %+v", st)
	}
	if st.Jobs[0].State != api.JobFailed {
		t.Fatalf("job: %+v", st.Jobs[0])
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (a timed-out job is not re-run)", got)
	}
	if code, _ := get(t, ts.URL+"/v1/sweeps/"+id+"/result"); code != http.StatusConflict {
		t.Fatalf("result of failed sweep: %d, want 409", code)
	}
}

// DELETE cancels: the running job is interrupted through the sweep's
// context, the jobs queued behind it never execute, and no result is
// served.
func TestCancelInterruptsAndSkips(t *testing.T) {
	started := make(chan struct{}, 4)
	var execs atomic.Int64
	exec := func(ctx context.Context, j runner.Job) (*machine.Result, error) {
		execs.Add(1)
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, ts := newTestService(t, Options{Workers: 1, Exec: exec})

	id := submit(t, ts.URL, `{"jobs": [
		{"app": "LU"}, {"app": "MP3D"}, {"app": "PTHOR"}
	]}`)
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}

	st := waitTerminal(t, ts.URL, id)
	if st.State != api.StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	var canceled int
	deadline := time.Now().Add(10 * time.Second)
	for canceled != 3 && time.Now().Before(deadline) {
		st = waitTerminal(t, ts.URL, id)
		canceled = 0
		for _, js := range st.Jobs {
			if js.State == api.JobCanceled {
				canceled++
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if canceled != 3 {
		t.Fatalf("canceled jobs = %d, want 3: %+v", canceled, st.Jobs)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (the queued jobs must not execute)", got)
	}
	if code, _ := get(t, ts.URL+"/v1/sweeps/"+id+"/result"); code != http.StatusConflict {
		t.Fatalf("result of canceled sweep: %d, want 409", code)
	}
}

// A sweep whose jobs deduplicated onto a canceled sweep's tasks — the
// running one and the two queued behind it — resubmits them under its
// own context and finishes.
func TestCancelPoisoningResubmits(t *testing.T) {
	started := make(chan struct{})
	var execs, luExecs atomic.Int64
	exec := func(ctx context.Context, j runner.Job) (*machine.Result, error) {
		execs.Add(1)
		if j.App == "LU" && luExecs.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &machine.Result{AppName: j.App, Cfg: j.Cfg, Elapsed: 1}, nil
	}
	svc, ts := newTestService(t, Options{Workers: 1, Exec: exec})
	spec := `{"jobs": [{"app": "LU"}, {"app": "MP3D"}, {"app": "PTHOR"}]}`

	a := submit(t, ts.URL, spec)
	<-started
	b := submit(t, ts.URL, spec)
	deadline := time.Now().Add(10 * time.Second)
	for svc.Engine().Metrics().Deduped != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never deduplicated onto %s: %+v", b, a, svc.Engine().Metrics())
		}
		time.Sleep(time.Millisecond)
	}
	svc.Cancel(a)

	st := waitTerminal(t, ts.URL, b)
	if st.State != api.StateDone || st.Done != 3 {
		t.Fatalf("sweep %s: %+v", b, st)
	}
	for _, js := range st.Jobs {
		if js.State != api.JobDone {
			t.Fatalf("job: %+v", js)
		}
	}
	if got := execs.Load(); got != 4 {
		t.Fatalf("executions = %d, want 4 (the interrupted LU, then LU, MP3D and PTHOR once each)", got)
	}
}

// The merged observability report aggregates per-job reports.
func TestObsReport(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestService(t, Options{Workers: 2, Exec: fakeExec(&execs)})
	id := submit(t, ts.URL, `{"obs": true, "jobs": [{"app": "LU"}, {"app": "MP3D"}]}`)
	if st := waitTerminal(t, ts.URL, id); st.State != api.StateDone {
		t.Fatalf("sweep: %+v", st)
	}
	code, b := get(t, ts.URL+"/v1/sweeps/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("report: %d %s", code, b)
	}
	var agg obs.SweepAggregate
	if err := json.Unmarshal(b, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 2 || agg.Elapsed != 2000 {
		t.Fatalf("aggregate: %+v", agg)
	}
	if len(agg.BucketCycles) != 1 || agg.BucketCycles[0].Total != 180 {
		t.Fatalf("bucket totals: %+v", agg.BucketCycles)
	}
}

// The /obs endpoint serves the dashboard's pane document: merged
// breakdown, stall waterfall and latency stats, flattened to api types.
func TestObsEndpoint(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestService(t, Options{Workers: 2, Exec: fakeExec(&execs)})
	id := submit(t, ts.URL, `{"obs": true, "jobs": [{"app": "LU", "config": {"Procs": 4}}, {"app": "MP3D", "config": {"Procs": 4}}]}`)
	if st := waitTerminal(t, ts.URL, id); st.State != api.StateDone {
		t.Fatalf("sweep: %+v", st)
	}
	code, b := get(t, ts.URL+"/v1/sweeps/"+id+"/obs")
	if code != http.StatusOK {
		t.Fatalf("obs: %d %s", code, b)
	}
	var doc api.ObsDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != id || doc.Runs != 2 || doc.Elapsed != 2000 {
		t.Fatalf("doc: %+v", doc)
	}
	if len(doc.Buckets) != 1 || doc.Buckets[0].Name != "busy" || doc.Buckets[0].Cycles != 180 {
		t.Fatalf("buckets: %+v", doc.Buckets)
	}
	// Points normalize to elapsed × procs: 100×180/(2×1000×4).
	if got := doc.Buckets[0].Points; got != 2.25 {
		t.Fatalf("busy points = %v, want 2.25", got)
	}
	if len(doc.Stalls) != 1 || doc.Stalls[0].Bucket != "read" ||
		doc.Stalls[0].StallCycles != 800 || doc.Stalls[0].Dominant != "network" {
		t.Fatalf("stalls: %+v", doc.Stalls)
	}

	// A sweep without obs serves an empty pane, not an error.
	plain := submit(t, ts.URL, `{"jobs": [{"app": "LU"}]}`)
	waitTerminal(t, ts.URL, plain)
	code, b = get(t, ts.URL+"/v1/sweeps/"+plain+"/obs")
	if code != http.StatusOK {
		t.Fatalf("plain obs: %d %s", code, b)
	}
	var empty api.ObsDoc
	if err := json.Unmarshal(b, &empty); err != nil {
		t.Fatal(err)
	}
	if empty.Runs != 0 || len(empty.Buckets) != 0 {
		t.Fatalf("plain sweep pane not empty: %+v", empty)
	}
}

// The /diff endpoint judges one sweep's merged observability against
// another's through the diff engine.
func TestDiffEndpoint(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestService(t, Options{Workers: 2, Exec: fakeExec(&execs)})
	a := submit(t, ts.URL, `{"obs": true, "jobs": [{"app": "LU", "config": {"Procs": 4}}]}`)
	b1 := submit(t, ts.URL, `{"obs": true, "jobs": [{"app": "LU", "config": {"Procs": 8}}]}`)
	waitTerminal(t, ts.URL, a)
	waitTerminal(t, ts.URL, b1)

	code, body := get(t, ts.URL+"/v1/sweeps/"+b1+"/diff?base="+a)
	if code != http.StatusOK {
		t.Fatalf("diff: %d %s", code, body)
	}
	var d diff.Diff
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	// The 8-proc sweep stalls twice as long: the read stall bucket must
	// regress while the identical execution-time buckets stay identical.
	if d.Verdict != diff.Regressed {
		t.Fatalf("verdict %s, want regressed: %s", d.Verdict, body)
	}
	found := false
	for _, r := range d.Regressions {
		if r == "stall/read" {
			found = true
		}
	}
	if !found {
		t.Fatalf("regressions %v do not name stall/read", d.Regressions)
	}

	// Self-diff is all-identical.
	code, body = get(t, ts.URL+"/v1/sweeps/"+a+"/diff?base="+a)
	if code != http.StatusOK {
		t.Fatalf("self diff: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Verdict != diff.Identical {
		t.Fatalf("self diff verdict %s: %s", d.Verdict, body)
	}

	// Error surface: missing base is 400, unknown sweeps are 404.
	if code, _ = get(t, ts.URL+"/v1/sweeps/"+a+"/diff"); code != http.StatusBadRequest {
		t.Fatalf("missing base: %d, want 400", code)
	}
	if code, _ = get(t, ts.URL+"/v1/sweeps/"+a+"/diff?base=s99"); code != http.StatusNotFound {
		t.Fatalf("unknown base: %d, want 404", code)
	}
}

// span_rate threads from the sweep spec into the session's obs options
// (and therefore the job hash): sweeps at different rates must not
// share cached results.
func TestSpanRateThreading(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestService(t, Options{Workers: 2, Exec: fakeExec(&execs)})

	a := submit(t, ts.URL, `{"obs": true, "jobs": [{"app": "LU"}]}`)
	b := submit(t, ts.URL, `{"obs": true, "span_rate": 0.5, "jobs": [{"app": "LU"}]}`)
	sta, stb := waitTerminal(t, ts.URL, a), waitTerminal(t, ts.URL, b)
	if sta.Jobs[0].Key == stb.Jobs[0].Key {
		t.Fatalf("same job key %s across span rates: rate not in the hash", sta.Jobs[0].Key)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (no cross-rate dedup)", got)
	}
	// Same explicit rate as another sweep dedups as usual.
	c := submit(t, ts.URL, `{"obs": true, "span_rate": 0.5, "jobs": [{"app": "LU"}]}`)
	stc := waitTerminal(t, ts.URL, c)
	if stc.Jobs[0].Key != stb.Jobs[0].Key {
		t.Fatalf("equal-rate sweeps hash differently: %s vs %s", stc.Jobs[0].Key, stb.Jobs[0].Key)
	}

	// Intake rejections: span_rate without obs, and out-of-range rates.
	for _, bad := range []string{
		`{"span_rate": 0.5, "jobs": [{"app": "LU"}]}`,
		`{"obs": true, "span_rate": 1.5, "jobs": [{"app": "LU"}]}`,
		`{"obs": true, "span_rate": -0.1, "jobs": [{"app": "LU"}]}`,
	} {
		if code, body := post(t, ts.URL+"/v1/sweeps", bad); code != http.StatusBadRequest {
			t.Errorf("POST %s: %d %s, want 400", bad, code, body)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestService(t, Options{Workers: 1, Exec: fakeExec(&execs)})

	for _, c := range []struct {
		body string
		want int
	}{
		{`{"experiment": "nope"}`, http.StatusBadRequest},
		{`{"bogus": 1}`, http.StatusBadRequest},
		{`{"jobs": [{"app": "LU", "config": {"Procs": 0}}]}`, http.StatusBadRequest},
		{`{"experiment": "fig2", "scale": "enormous"}`, http.StatusBadRequest},
	} {
		if code, b := post(t, ts.URL+"/v1/sweeps", c.body); code != c.want {
			t.Errorf("POST %s: %d %s, want %d", c.body, code, b, c.want)
		}
	}
	for _, url := range []string{"/v1/sweeps/s99", "/v1/sweeps/s99/result", "/v1/sweeps/s99/report"} {
		if code, _ := get(t, ts.URL+url); code != http.StatusNotFound {
			t.Errorf("GET %s: not 404", url)
		}
	}
	// Error envelope shape.
	_, b := get(t, ts.URL+"/v1/sweeps/s99")
	var e api.Error
	if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
		t.Fatalf("error envelope: %s", b)
	}
}

func TestResultNotReady(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, j runner.Job) (*machine.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &machine.Result{AppName: j.App, Cfg: j.Cfg, Elapsed: 1}, nil
	}
	_, ts := newTestService(t, Options{Workers: 1, Exec: exec})
	id := submit(t, ts.URL, `{"jobs": [{"app": "LU"}]}`)
	if code, _ := get(t, ts.URL+"/v1/sweeps/"+id+"/result"); code != http.StatusConflict {
		t.Fatalf("result while running: want 409")
	}
	close(release)
	if st := waitTerminal(t, ts.URL, id); st.State != api.StateDone {
		t.Fatalf("sweep: %+v", st)
	}
}

func TestDashboardServes(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestService(t, Options{Workers: 1, Exec: fakeExec(&execs)})
	code, b := get(t, ts.URL+"/dashboard")
	if code != http.StatusOK || !bytes.Contains(b, []byte("sweepd")) {
		t.Fatalf("dashboard: %d", code)
	}
	if code, _ = get(t, ts.URL+"/dashboard/events"); code != http.StatusOK {
		t.Fatalf("events: %d", code)
	}
}

// An experiment sweep's rendered result is byte-identical to what
// core.RunExperiment (the cmd/figures code path) writes, plus the
// blank separator line the CLI appends.
func TestExperimentResultMatchesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	svc, ts := newTestService(t, Options{})
	id := submit(t, ts.URL, `{"experiment": "hitrates"}`)
	st := waitTerminal(t, ts.URL, id)
	if st.State != api.StateDone {
		t.Fatalf("sweep: %+v", st)
	}
	code, got := get(t, ts.URL+"/v1/sweeps/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}

	// Reference render through a session sharing the engine (every job
	// is memoized, so this re-renders without re-simulating).
	ref := core.NewSession(core.ScaleSmall)
	ref.Engine = svc.Engine()
	defer ref.Close()
	var want bytes.Buffer
	if err := ref.RunExperiment(&want, "hitrates", nil); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("service result diverges from figures render:\n--- service\n%s--- figures\n%s", got, want.Bytes())
	}
	// Every simulation the render needed was already executed by the
	// sweep: the reference render must be pure memo hits.
	if m := svc.Engine().Metrics(); m.Deduped == 0 {
		t.Fatalf("reference render re-simulated: %+v", m)
	}
}
