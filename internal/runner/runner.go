package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"latsim/internal/machine"
)

// ErrClosed is returned by jobs submitted after Close.
var ErrClosed = errors.New("runner: closed")

// ExecFunc executes one job. It must honor ctx (the machine simulator's
// RunContext polls it), must not retain the job after returning, and is
// called from worker goroutines — it must not share mutable state across
// concurrent calls. Simulations are deterministic, so the result must
// depend only on the job.
type ExecFunc func(ctx context.Context, j Job) (*machine.Result, error)

// Options configure a Runner.
type Options struct {
	// Workers bounds concurrent executions; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheDir enables the persistent result cache ("" disables it).
	CacheDir string
	// Timeout is the per-job wall-clock limit (0 = none). A job that
	// exceeds it fails and is not re-run: a result depends only on its
	// job, so only a larger limit changes the outcome.
	Timeout time.Duration
	// Hooks observes task lifecycle events (nil = none).
	Hooks *Hooks
	// Trace receives progress lines (nil discards them).
	Trace io.Writer
}

// Task is one submitted job. Duplicate submissions of the same job
// return the same Task (singleflight on the job hash), so a Task may be
// waited on by many callers.
type Task struct {
	Job Job
	Key string

	ctx  context.Context
	done chan struct{}
	res  *machine.Result
	err  error
}

// Wait blocks until the job finishes and returns its result.
func (t *Task) Wait() (*machine.Result, error) {
	<-t.done
	return t.res, t.err
}

// Runner executes jobs on a bounded pool of worker goroutines. Workers
// are spawned on demand up to Options.Workers and exit when the queue
// drains, so an idle Runner holds no goroutines. Completed tasks stay
// in the in-process memo: resubmitting a finished job returns its task
// (and result) immediately.
type Runner struct {
	exec    ExecFunc
	opts    Options
	workers int // resolved Options.Workers
	cache   *Cache

	mu      sync.Mutex
	tasks   map[string]*Task // memo + singleflight, keyed by job hash
	queue   []*Task
	active  int // live worker goroutines
	closed  bool
	metrics Metrics

	traceMu sync.Mutex
}

// New builds a runner around exec.
func New(opts Options, exec ExecFunc) (*Runner, error) {
	if exec == nil {
		return nil, errors.New("runner: nil ExecFunc")
	}
	r := &Runner{
		exec:    exec,
		opts:    opts,
		workers: opts.Workers,
		tasks:   make(map[string]*Task),
	}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheDir != "" {
		c, err := OpenCache(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		r.cache = c
	}
	return r, nil
}

// Submit enqueues the job and returns its task without blocking. A job
// whose hash matches a queued, running or completed task is deduplicated
// onto that task. ctx cancels the job's execution (the first submitter's
// context wins for a deduplicated job).
func (r *Runner) Submit(ctx context.Context, j Job) *Task {
	if ctx == nil {
		ctx = context.Background()
	}
	key := j.Key()
	r.mu.Lock()
	r.metrics.Submitted++
	if t, ok := r.tasks[key]; ok {
		r.metrics.Deduped++
		r.mu.Unlock()
		return t
	}
	t := &Task{Job: j, Key: key, ctx: ctx, done: make(chan struct{})}
	if r.closed {
		r.metrics.Failed++
		r.mu.Unlock()
		t.err = ErrClosed
		close(t.done)
		return t
	}
	r.tasks[key] = t
	r.queue = append(r.queue, t)
	r.metrics.Queued++
	if r.active < r.workers {
		r.active++
		go r.work()
	}
	r.mu.Unlock()
	r.opts.Hooks.Queued(key, j)
	return t
}

// Run submits the job and waits for it.
func (r *Runner) Run(ctx context.Context, j Job) (*machine.Result, error) {
	return r.Submit(ctx, j).Wait()
}

// RunAll submits every job, waits for all of them, and returns results
// in submission order. All jobs run to completion even when one fails;
// the first error is returned.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) ([]*machine.Result, error) {
	tasks := make([]*Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = r.Submit(ctx, j)
	}
	out := make([]*machine.Result, len(jobs))
	var firstErr error
	for i, t := range tasks {
		res, err := t.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[i] = res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Metrics returns a snapshot of the progress counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics
}

// Close rejects future submissions. Queued and running jobs finish
// normally; the worker goroutines exit once the queue drains.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// work is one pool worker: it drains the queue and exits when empty.
func (r *Runner) work() {
	for {
		r.mu.Lock()
		if len(r.queue) == 0 {
			r.active--
			r.mu.Unlock()
			return
		}
		t := r.queue[0]
		r.queue = r.queue[1:]
		r.metrics.Queued--
		r.metrics.Running++
		r.mu.Unlock()
		r.runTask(t)
	}
}

// runTask resolves one task: a cache probe, then, unless the submitter
// has already given up, one execution under the per-job timeout.
func (r *Runner) runTask(t *Task) {
	start := time.Now()
	if r.cache != nil {
		if res, ok := r.cache.Load(t.Key); ok {
			r.finish(t, res, nil, true, start)
			return
		}
		r.mu.Lock()
		r.metrics.CacheMisses++
		r.mu.Unlock()
	}
	if err := t.ctx.Err(); err != nil {
		r.finish(t, nil, fmt.Errorf("runner: %s: %w", t.Job, err), false, start)
		return
	}
	ctx := t.ctx
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
		defer cancel()
	}
	r.opts.Hooks.AttemptStart(t.Key, t.Job, 1)
	r.tracef("  running %s...", t.Job)
	// The labels split a CPU profile of a batch per job (go tool pprof
	// -tagfocus); the processes' goroutines inherit them.
	var res *machine.Result
	var err error
	labels := pprof.Labels("app", t.Job.App, "config", t.Job.Cfg.Name())
	pprof.Do(ctx, labels, func(ctx context.Context) { res, err = r.safeExec(ctx, t.Job) })
	r.opts.Hooks.AttemptDone(t.Key, t.Job, 1, err)
	if err == nil && r.cache != nil {
		if serr := r.cache.Store(t.Key, t.Job, res); serr != nil {
			// A full disk or read-only cache degrades to re-simulation;
			// it must not fail the job.
			r.tracef("  cache store failed for %s: %v", t.Job, serr)
		}
	}
	r.finish(t, res, err, false, start)
}

// safeExec runs exec with panic containment, so one bad job cannot take
// down the whole batch.
func (r *Runner) safeExec(ctx context.Context, j Job) (res *machine.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("runner: %s panicked: %v\n%s", j, p, debug.Stack())
		}
	}()
	return r.exec(ctx, j)
}

// finish publishes the outcome and updates metrics.
func (r *Runner) finish(t *Task, res *machine.Result, err error, hit bool, start time.Time) {
	wall := time.Since(start)
	r.mu.Lock()
	r.metrics.Running--
	r.metrics.WallTime += wall
	switch {
	case err != nil:
		r.metrics.Failed++
	case hit:
		r.metrics.CacheHits++
	default:
		r.metrics.Executed++
		if res != nil {
			r.metrics.SimCycles += uint64(res.Elapsed)
			r.metrics.SimEvents += res.Kernel.Fired
		}
	}
	snap := r.metrics
	r.mu.Unlock()
	// The progress line is written before waiters wake, so a caller that
	// has its results also has every line about them.
	total := snap.Done() + snap.Queued + snap.Running
	switch {
	case err != nil:
		r.tracef("  failed %s: %v (%d/%d jobs)", t.Job, err, snap.Done(), total)
	case hit:
		r.tracef("  cached %s (%d/%d jobs)", t.Job, snap.Done(), total)
	default:
		r.tracef("  done %s: %d cycles in %v (%d/%d jobs)",
			t.Job, res.Elapsed, wall.Round(time.Millisecond), snap.Done(), total)
	}
	t.res, t.err = res, err
	close(t.done)
	r.opts.Hooks.Finish(t.Key, t.Job, err, hit)
}

// tracef writes one progress line, serialized across workers.
func (r *Runner) tracef(format string, args ...any) {
	if r.opts.Trace == nil {
		return
	}
	r.traceMu.Lock()
	fmt.Fprintf(r.opts.Trace, format+"\n", args...)
	r.traceMu.Unlock()
}
