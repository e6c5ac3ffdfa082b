// Package sweepd is the durable control plane over the experiment
// runner: a long-lived service that accepts sweep submissions over HTTP
// (a named experiment or an explicit job list), schedules their
// simulations through one shared job engine, and serves per-job status,
// results and observability rollups while they run.
//
// The architecture is thin by design. One runner.Runner is shared by
// every sweep and every client, so the engine's content-hash memo and
// persistent cache give cross-client dedup for free: two clients
// POSTing the same figure concurrently execute each simulation once.
// The engine is also the only job queue: each accepted sweep is one
// goroutine that submits every job, waits for each in order, then
// renders. Rendering goes through core.RunExperiment, the same code
// path cmd/figures prints with, so an experiment sweep's result is
// byte-identical to the CLI's output.
package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/machine"
	"latsim/internal/obs"
	"latsim/internal/obs/diff"
	"latsim/internal/runner"
	"latsim/internal/sweepd/api"
	"latsim/internal/twin/validate"
)

// TwinSweepID is the extra experiment id the service accepts beyond
// cmd/figures' registry: the analytical twin's design-space sweep
// (cmd/twin -sweep).
const TwinSweepID = "twin-sweep"

// Options configure a Service.
type Options struct {
	// Workers bounds concurrently executing jobs (0 = GOMAXPROCS).
	Workers int
	// CacheDir enables the engine's persistent result cache;
	// CacheMaxBytes caps it with LRU eviction (0 = unbounded).
	CacheDir      string
	CacheMaxBytes int64
	// Timeout is the per-job wall-clock limit (0 = none).
	Timeout time.Duration
	// Trace receives the engine's progress lines (nil discards).
	Trace io.Writer
	// Exec overrides the execution function (nil = core.Exec, the real
	// simulator). Tests use this to run the scheduler without
	// simulating.
	Exec runner.ExecFunc
}

// Service is the sweep control plane. Create with New, serve Handler()
// over HTTP, stop with Close.
type Service struct {
	opts Options
	eng  *runner.Runner

	ctx    context.Context // base context; Close cancels every job
	cancel context.CancelFunc
	wg     sync.WaitGroup // one count per sweep goroutine

	mu       sync.Mutex
	sweeps   map[string]*sweep
	order    []string // sweep ids in submission order
	sessions map[sessionKey]*sessionEntry
	nextID   int
	closed   bool

	events eventLog // dashboard's recent-activity feed
}

// sessionKey identifies a shareable core.Session: jobs hash over
// exactly these knobs (plus the per-job config), so sweeps that agree
// on them dedup against each other. spanRate is the effective obs
// span-tracing rate (0 when obs is off): two obs sweeps at different
// rates record different data, so they must not share a session.
type sessionKey struct {
	scale    core.Scale
	seed     int64
	obs      bool
	spanRate float64
	check    bool
}

type sessionEntry struct {
	sess *core.Session
	obs  *obs.Options // the session's exact Obs pointer (nil when off)
}

// sweep is one accepted submission.
type sweep struct {
	id   string
	spec *api.SweepSpec

	scale core.Scale
	sess  *sessionEntry

	ctx    context.Context // canceled by DELETE and by service Close
	cancel context.CancelFunc

	// Guarded by Service.mu.
	state    string
	err      string
	jobs     []*jobEntry
	created  time.Time
	finished time.Time
	result   []byte // rendered output (terminal sweeps)
	resultCT string // result content type
}

// jobEntry is one tracked job of a sweep. Guarded by Service.mu except
// job (immutable after creation).
type jobEntry struct {
	job     runner.Job
	key     string
	cfgName string

	state     string
	fromCache bool
	elapsed   uint64
	err       string
	res       *machine.Result
}

// New builds the service and its shared engine.
func New(opts Options) (*Service, error) {
	s := &Service{
		opts:     opts,
		sweeps:   map[string]*sweep{},
		sessions: map[sessionKey]*sessionEntry{},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	exec := opts.Exec
	if exec == nil {
		exec = core.Exec
	}
	eng, err := runner.New(runner.Options{
		Workers:       opts.Workers,
		CacheDir:      opts.CacheDir,
		CacheMaxBytes: opts.CacheMaxBytes,
		Timeout:       opts.Timeout,
		Trace:         opts.Trace,
		Hooks: &runner.Hooks{
			OnFinish: func(_ string, j runner.Job, err error, hit bool) {
				switch {
				case err != nil:
					s.events.addf("failed %s: %v", j, firstLine(err))
				case hit:
					s.events.addf("cache hit %s", j)
				default:
					s.events.addf("done %s", j)
				}
			},
		},
	}, exec)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	return s, nil
}

// Engine exposes the shared engine (metrics, cache) to the HTTP layer
// and tests.
func (s *Service) Engine() *runner.Runner { return s.eng }

// knownExperiment reports whether the service can run id.
func knownExperiment(id string) bool {
	return id == TwinSweepID || core.KnownExperiment(id)
}

// session returns (building on first use) the shared session for the
// sweep's scale/seed/obs/check combination. Sessions submit to the one
// shared engine, so they exist only to carry those knobs.
func (s *Service) session(key sessionKey) *sessionEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.sessions[key]; ok {
		return e
	}
	sess := core.NewSession(key.scale)
	sess.Engine = s.eng
	sess.Ctx = s.ctx
	sess.Seed = key.seed
	sess.Check = key.check
	e := &sessionEntry{sess: sess}
	if key.obs {
		e.obs = &obs.Options{SpanRate: key.spanRate}
		sess.Obs = e.obs
	}
	s.sessions[key] = e
	return e
}

// Submit accepts a parsed sweep spec, starts the goroutine that runs
// it, and returns the sweep id. It validates everything derived from
// untrusted input (scale, experiment id, per-job configs) before
// accepting.
func (s *Service) Submit(spec *api.SweepSpec) (string, error) {
	scaleStr := spec.Scale
	if scaleStr == "" {
		scaleStr = "small"
	}
	scale, err := core.ParseScale(scaleStr)
	if err != nil {
		return "", err
	}
	if spec.Experiment != "" && !knownExperiment(spec.Experiment) {
		return "", fmt.Errorf("sweepd: unknown experiment %q", spec.Experiment)
	}
	if spec.SpanRate != 0 && !spec.Obs {
		return "", errors.New("sweepd: span_rate requires obs")
	}
	if err := config.ValidateSpanRate(spec.SpanRate); err != nil {
		return "", err
	}
	var spanRate float64
	if spec.Obs {
		spanRate = spec.SpanRate
		if spanRate == 0 {
			spanRate = obs.DefaultSpanRate
		}
	}
	sessEnt := s.session(sessionKey{scale: scale, seed: spec.Seed, obs: spec.Obs, spanRate: spanRate, check: spec.Check})

	sw := &sweep{
		spec:  spec,
		scale: scale,
		sess:  sessEnt,
		state: api.StateRunning,
	}
	sw.ctx, sw.cancel = context.WithCancel(s.ctx)

	// Resolve the job list up front so a bad config rejects the whole
	// submission instead of failing a half-run sweep.
	var reqs []core.Request
	if spec.Experiment != "" {
		if spec.Experiment != TwinSweepID {
			if reqs, err = sessEnt.sess.ExperimentRequests(spec.Experiment); err != nil {
				return "", err
			}
		}
	} else {
		for i, js := range spec.Jobs {
			cfg, err := config.Overlay(core.Base(), js.Config)
			if err != nil {
				return "", fmt.Errorf("job %d: %w", i, err)
			}
			reqs = append(reqs, core.Request{App: js.App, Cfg: cfg})
		}
	}
	for _, r := range reqs {
		j := runner.Job{
			App:   r.App,
			Scale: scale.String(),
			Seed:  spec.Seed,
			Obs:   sessEnt.obs,
			Check: spec.Check,
			Cfg:   r.Cfg,
		}
		sw.jobs = append(sw.jobs, &jobEntry{
			job:     j,
			key:     j.Key(),
			cfgName: r.Cfg.Name(),
			state:   api.JobPending,
		})
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sw.cancel()
		return "", fmt.Errorf("sweepd: %w", runner.ErrClosed)
	}
	s.nextID++
	sw.id = fmt.Sprintf("s%d", s.nextID)
	sw.created = time.Now()
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.wg.Add(1)
	s.mu.Unlock()
	s.events.addf("accepted sweep %s (%s, %d jobs)", sw.id, sw.label(), len(sw.jobs))
	go s.run(sw)
	return sw.id, nil
}

func (sw *sweep) label() string {
	if sw.spec.Experiment != "" {
		return sw.spec.Experiment
	}
	return fmt.Sprintf("%d explicit jobs", len(sw.spec.Jobs))
}

// run is a sweep's goroutine: it submits every job to the shared
// engine, records each outcome in order, then finishes the sweep.
func (s *Service) run(sw *sweep) {
	defer s.wg.Done()
	defer sw.cancel() // every task of the sweep has finished by then
	tasks := make([]*runner.Task, len(sw.jobs))
	for i, je := range sw.jobs {
		tasks[i] = s.eng.Submit(sw.ctx, je.job)
	}
	for i, je := range sw.jobs {
		s.runJob(sw, je, tasks[i])
	}
	s.finalize(sw)
}

// maxPoisonRetries bounds Forget+resubmit of a task failed by another
// sweep's canceled context.
const maxPoisonRetries = 2

// runJob waits for the job's task and records its outcome.
func (s *Service) runJob(sw *sweep, je *jobEntry, task *runner.Task) {
	res, err := task.Wait()
	// Cross-sweep context poisoning: the engine memoizes the FIRST
	// submitter's context, so a job deduplicated onto a sweep that was
	// canceled — while its task ran or still queued — fails with that
	// sweep's cancellation even though ours is live. Forget the
	// poisoned memo entry and resubmit under our own context (bounded;
	// normally the resubmission loads the fresh result from the
	// persistent cache or executes once). A timeout is the job's own
	// failure, not poisoning: no sweep context has a deadline.
	for retries := 0; err != nil && sw.ctx.Err() == nil && errors.Is(err, context.Canceled) &&
		retries < maxPoisonRetries; retries++ {
		if !s.eng.Forget(je.key) {
			break
		}
		s.events.addf("resubmitting %s (deduplicated onto a canceled sweep)", je.job)
		task = s.eng.Submit(sw.ctx, je.job)
		res, err = task.Wait()
	}
	s.mu.Lock()
	je.fromCache = task.FromCache()
	switch {
	case err == nil:
		je.state = api.JobDone
		je.res = res
		if res != nil {
			je.elapsed = uint64(res.Elapsed)
		}
	case sw.ctx.Err() != nil:
		je.state = api.JobCanceled
	default:
		je.state = api.JobFailed
		je.err = err.Error()
	}
	s.mu.Unlock()
}

// finalize renders the sweep's result once every job is terminal.
func (s *Service) finalize(sw *sweep) {
	s.mu.Lock()
	var failed *jobEntry
	for _, je := range sw.jobs {
		if je.state == api.JobFailed {
			failed = je
			break
		}
	}
	canceled := sw.ctx.Err() != nil
	s.mu.Unlock()

	var state, errMsg string
	var result []byte
	contentType := "text/plain; charset=utf-8"
	switch {
	case canceled:
		state = api.StateCanceled
	case failed != nil:
		state = api.StateFailed
		errMsg = fmt.Sprintf("job %s (%s) failed: %s", failed.job.App, failed.cfgName, failed.err)
	default:
		var err error
		result, contentType, err = s.render(sw)
		if err != nil {
			state, errMsg = api.StateFailed, err.Error()
		} else {
			state = api.StateDone
		}
	}

	s.mu.Lock()
	if sw.state == api.StateRunning { // Cancel may have won while rendering
		sw.state = state
		sw.err = errMsg
		sw.result = result
		sw.resultCT = contentType
		sw.finished = time.Now()
	} else {
		state = sw.state
	}
	s.mu.Unlock()
	s.events.addf("sweep %s %s", sw.id, state)
}

// render produces the sweep's result document. Experiment sweeps go
// through core.RunExperiment — every simulation request was already
// executed and memoized, so this assembles bytes identical to the
// cmd/figures output (including its trailing blank separator line).
func (s *Service) render(sw *sweep) ([]byte, string, error) {
	if exp := sw.spec.Experiment; exp != "" {
		var buf bytes.Buffer
		if exp == TwinSweepID {
			rep, err := validate.Sweep(sw.sess.sess)
			if err != nil {
				return nil, "", err
			}
			rep.Render(func(line string) { fmt.Fprintln(&buf, line) })
		} else {
			if err := sw.sess.sess.RunExperiment(&buf, exp, nil); err != nil {
				return nil, "", err
			}
			buf.WriteByte('\n') // figures prints a blank line after each experiment
		}
		return buf.Bytes(), "text/plain; charset=utf-8", nil
	}
	return s.renderJobs(sw)
}

// jobResult is one entry of a job-list sweep's results document.
type jobResult struct {
	App       string          `json:"app"`
	Config    string          `json:"config"`
	Key       string          `json:"key"`
	FromCache bool            `json:"from_cache,omitempty"`
	Result    *machine.Result `json:"result"`
}

// renderJobs assembles the results document for an explicit job-list
// sweep: every job's full simulation result, in submission order.
func (s *Service) renderJobs(sw *sweep) ([]byte, string, error) {
	s.mu.Lock()
	doc := struct {
		Jobs []jobResult `json:"jobs"`
	}{Jobs: make([]jobResult, 0, len(sw.jobs))}
	for _, je := range sw.jobs {
		doc.Jobs = append(doc.Jobs, jobResult{
			App:       je.job.App,
			Config:    je.cfgName,
			Key:       je.key,
			FromCache: je.fromCache,
			Result:    je.res,
		})
	}
	s.mu.Unlock()
	b, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return nil, "", err
	}
	return append(b, '\n'), "application/json", nil
}

// Close cancels every sweep, rejects further submissions, and returns
// once every sweep's goroutine has exited.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.eng.Close()
	s.wg.Wait()
}

// Cancel cancels a sweep through its context: its running jobs are
// interrupted and its queued ones fail without executing, all reporting
// JobCanceled. Canceling a terminal sweep is a no-op. Reports whether
// the sweep exists.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	running := sw.state == api.StateRunning
	if running {
		sw.state = api.StateCanceled
		sw.finished = time.Now()
	}
	s.mu.Unlock()
	if running {
		sw.cancel()
		s.events.addf("sweep %s canceled", id)
	}
	return true
}

// Status snapshots one sweep (nil if unknown).
func (s *Service) Status(id string) *api.SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil
	}
	return sw.statusLocked()
}

func (sw *sweep) statusLocked() *api.SweepStatus {
	st := &api.SweepStatus{
		ID:         sw.id,
		Name:       sw.spec.Name,
		State:      sw.state,
		Experiment: sw.spec.Experiment,
		Scale:      sw.scale.String(),
		Created:    stamp(sw.created),
		Started:    stamp(sw.created),
		Finished:   stamp(sw.finished),
		Error:      sw.err,
		Total:      len(sw.jobs),
	}
	for _, je := range sw.jobs {
		js := api.JobStatus{
			Key:           je.key,
			App:           je.job.App,
			Config:        je.cfgName,
			State:         je.state,
			FromCache:     je.fromCache,
			ElapsedCycles: je.elapsed,
			Error:         je.err,
		}
		switch je.state {
		case api.JobDone, api.JobFailed, api.JobCanceled:
			st.Done++
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st
}

// List snapshots every sweep in submission order.
func (s *Service) List() *api.SweepList {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &api.SweepList{Sweeps: []api.SweepSummary{}}
	for _, id := range s.order {
		sw := s.sweeps[id]
		st := sw.statusLocked()
		out.Sweeps = append(out.Sweeps, api.SweepSummary{
			ID:         st.ID,
			Name:       st.Name,
			State:      st.State,
			Experiment: st.Experiment,
			Done:       st.Done,
			Total:      st.Total,
			Created:    st.Created,
		})
	}
	return out
}

// Result returns a terminal sweep's rendered result. ok reports the
// sweep exists AND finished successfully; state tells the caller what
// to report otherwise.
func (s *Service) Result(id string) (data []byte, contentType, state string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, found := s.sweeps[id]
	if !found {
		return nil, "", "", false
	}
	if sw.state != api.StateDone {
		return nil, "", sw.state, false
	}
	return sw.result, sw.resultCT, sw.state, true
}

// Report aggregates the sweep's per-job observability reports. Returns
// a nil aggregate when the sweep is unknown; an empty aggregate when it
// recorded nothing. The error surfaces obs.Aggregate's refusals (e.g. a
// sweep whose jobs sampled spans at different strides).
func (s *Service) Report(id string) (*obs.SweepAggregate, error) {
	reports, ok := s.obsReports(id)
	if !ok {
		return nil, nil
	}
	return obs.Aggregate(reports)
}

// Obs builds the dashboard's observability-pane document for a sweep:
// the merged execution-time breakdown, stall waterfall and latency
// statistics flattened to api types. Nil doc when the sweep is unknown.
func (s *Service) Obs(id string) (*api.ObsDoc, error) {
	agg, err := s.Report(id)
	if err != nil || agg == nil {
		return nil, err
	}
	doc := &api.ObsDoc{ID: id, Runs: agg.Runs, Elapsed: agg.Elapsed}
	// Points normalize to total processor-cycles (elapsed × procs per
	// run) so a sweep's buckets sum to ~100 like the paper's breakdowns.
	denom := agg.ProcCycles
	if denom == 0 {
		denom = agg.Elapsed
	}
	for _, t := range agg.BucketCycles {
		b := api.ObsBucket{Name: t.Name, Cycles: t.Total}
		if denom > 0 {
			b.Points = 100 * float64(t.Total) / float64(denom)
		}
		doc.Buckets = append(doc.Buckets, b)
	}
	for _, st := range agg.Stalls {
		os := api.ObsStall{Bucket: st.Bucket, StallCycles: st.StallCycles}
		var domCycles uint64
		for _, seg := range st.Segments {
			os.Segments = append(os.Segments, api.ObsSegment{Kind: seg.Kind, Attributed: seg.Attributed})
			if seg.Attributed > domCycles {
				domCycles = seg.Attributed
				os.Dominant = seg.Kind
			}
		}
		doc.Stalls = append(doc.Stalls, os)
	}
	for i := range agg.Hists {
		h := &agg.Hists[i].Hist
		doc.Hists = append(doc.Hists, api.ObsHist{
			Name:  agg.Hists[i].Name,
			Count: h.Count,
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		})
	}
	return doc, nil
}

// Diff compares sweep id's merged observability against sweep baseID's,
// through the report-level diff engine. Nil when either sweep is
// unknown.
func (s *Service) Diff(baseID, id string) (*diff.Diff, error) {
	base, err := s.Report(baseID)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", baseID, err)
	}
	cur, err := s.Report(id)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", id, err)
	}
	if base == nil || cur == nil {
		return nil, nil
	}
	d := diff.Compare(base.AsReport(), cur.AsReport(), diff.Default())
	if d != nil {
		d.BaseLabel = "sweep " + baseID
		d.NewLabel = "sweep " + id
	}
	return d, nil
}

// obsReports snapshots the sweep's finished per-job obs reports.
func (s *Service) obsReports(id string) ([]*obs.Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil, false
	}
	var reports []*obs.Report
	for _, je := range sw.jobs {
		if je.res != nil {
			reports = append(reports, je.res.Obs)
		}
	}
	return reports, true
}

// Stats snapshots the service and engine counters.
func (s *Service) Stats() *api.Stats {
	m := s.eng.Metrics()
	st := &api.Stats{
		Submitted:    uint64(m.Submitted),
		Deduped:      uint64(m.Deduped),
		Executed:     uint64(m.Executed),
		CacheHits:    uint64(m.CacheHits),
		Failed:       uint64(m.Failed),
		QueuedJobs:   int(m.Queued),
		InflightJobs: int(m.Running),
		Sweeps:       map[string]int{},
	}
	if c := s.eng.Cache(); c != nil {
		st.CacheEntries = c.Len()
		st.CacheBytes = c.Size()
	}
	s.mu.Lock()
	for _, sw := range s.sweeps {
		st.Sweeps[sw.state]++
	}
	s.mu.Unlock()
	return st
}

// stamp renders a status timestamp ("" for unset).
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// firstLine trims an error (panic traces include a stack) for the
// event feed.
func firstLine(err error) string {
	msg := err.Error()
	for i := 0; i < len(msg); i++ {
		if msg[i] == '\n' {
			return msg[:i]
		}
	}
	return msg
}

// eventLog is a fixed-size ring of recent scheduler events for the
// dashboard.
type eventLog struct {
	mu   sync.Mutex
	ring [64]string
	n    int
}

func (l *eventLog) addf(format string, args ...any) {
	l.mu.Lock()
	l.ring[l.n%len(l.ring)] = fmt.Sprintf("%s  %s",
		time.Now().UTC().Format("15:04:05"), fmt.Sprintf(format, args...))
	l.n++
	l.mu.Unlock()
}

// Recent returns the latest events, newest first.
func (l *eventLog) Recent() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	count := l.n
	if count > len(l.ring) {
		count = len(l.ring)
	}
	out := make([]string, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, l.ring[(l.n-1-i)%len(l.ring)])
	}
	return out
}
