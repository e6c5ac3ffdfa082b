package runner

import (
	"context"
	"errors"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"latsim/internal/config"
	"latsim/internal/machine"
	"latsim/internal/sim"
)

// testJob returns a distinct job per id (the id is smuggled through the
// seed so the hash differs).
func testJob(id int) Job {
	return Job{App: "fake", Scale: "small", Seed: int64(id + 1), Cfg: config.Default()}
}

func fakeResult(j Job) *machine.Result {
	return &machine.Result{AppName: j.App, Cfg: j.Cfg, Elapsed: sim.Time(1000 + j.Seed)}
}

func TestJobKeyStable(t *testing.T) {
	a, b := testJob(1), testJob(1)
	if a.Key() != b.Key() {
		t.Fatal("equal jobs produced different keys")
	}
	c := testJob(2)
	if a.Key() == c.Key() {
		t.Fatal("distinct jobs collided")
	}
	d := a
	d.Cfg.Contexts = 4
	if a.Key() == d.Key() {
		t.Fatal("config change did not change the key")
	}
}

func TestRunAllOrderAndDedup(t *testing.T) {
	var execs atomic.Int64
	r, err := New(Options{Workers: 4}, func(_ context.Context, j Job) (*machine.Result, error) {
		execs.Add(1)
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{testJob(0), testJob(1), testJob(0), testJob(2), testJob(1), testJob(0)}
	res, err := r.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(res), len(jobs))
	}
	for i, j := range jobs {
		if res[i] == nil || res[i].Elapsed != sim.Time(1000+j.Seed) {
			t.Fatalf("result %d does not match job %v: %+v", i, j.Seed, res[i])
		}
	}
	if res[0] != res[2] || res[0] != res[5] || res[1] != res[4] {
		t.Fatal("duplicate jobs did not share one result")
	}
	if got := execs.Load(); got != 3 {
		t.Fatalf("executed %d times, want 3 (singleflight)", got)
	}
	m := r.Metrics()
	if m.Submitted != 6 || m.Deduped != 3 || m.Executed != 3 || m.Failed != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestWorkerBound(t *testing.T) {
	const workers, njobs = 3, 10
	var cur, max atomic.Int64
	release := make(chan struct{})
	r, err := New(Options{Workers: workers}, func(_ context.Context, j Job) (*machine.Result, error) {
		n := cur.Add(1)
		for {
			old := max.Load()
			if n <= old || max.CompareAndSwap(old, n) {
				break
			}
		}
		<-release
		cur.Add(-1)
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks []*Task
	for i := 0; i < njobs; i++ {
		tasks = append(tasks, r.Submit(context.Background(), testJob(i)))
	}
	// Let the pool spin up, then release everything.
	time.Sleep(50 * time.Millisecond)
	close(release)
	for _, tk := range tasks {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := max.Load(); got > workers {
		t.Fatalf("observed %d concurrent executions, worker bound is %d", got, workers)
	}
	if r.Metrics().Executed != njobs {
		t.Fatalf("metrics: %+v", r.Metrics())
	}
}

func TestPanicRecovery(t *testing.T) {
	r, err := New(Options{Workers: 2}, func(_ context.Context, j Job) (*machine.Result, error) {
		if j.Seed == 1 {
			panic("boom")
		}
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), testJob(0)); err == nil ||
		!strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error, got %v", err)
	}
	// The pool survives a panicking job.
	if _, err := r.Run(context.Background(), testJob(1)); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.Failed != 1 || m.Executed != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestTimeout(t *testing.T) {
	r, err := New(Options{Workers: 1, Timeout: 20 * time.Millisecond},
		func(ctx context.Context, j Job) (*machine.Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background(), testJob(0))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := New(Options{Workers: 1}, func(_ context.Context, j Job) (*machine.Result, error) {
		t.Error("exec called for a canceled submission")
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, testJob(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRetryCanceledBeforeStart checks that a task whose context is dead
// before a worker picks it up is never attempted: it fails with
// context.Canceled and counts as one failed job, not an executed one.
func TestRetryCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var execs atomic.Int64
	r, err := New(Options{Workers: 1}, func(_ context.Context, j Job) (*machine.Result, error) {
		execs.Add(1)
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(ctx, testJob(0)).Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if execs.Load() != 0 {
		t.Fatalf("executed %d times under a dead context, want 0", execs.Load())
	}
	if m := r.Metrics(); m.Failed != 1 || m.Executed != 0 {
		t.Fatalf("metrics %+v, want 1 failed, 0 executed", m)
	}
}

func TestRunAllFirstError(t *testing.T) {
	bad := errors.New("bad job")
	r, err := New(Options{Workers: 2}, func(_ context.Context, j Job) (*machine.Result, error) {
		if j.Seed == 2 {
			return nil, bad
		}
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunAll(context.Background(), []Job{testJob(0), testJob(1), testJob(2)}); !errors.Is(err, bad) {
		t.Fatalf("want %v, got %v", bad, err)
	}
}

func TestClosedRunnerRejects(t *testing.T) {
	r, err := New(Options{Workers: 1}, func(_ context.Context, j Job) (*machine.Result, error) {
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), testJob(0)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// A completed job is still served from the memo after Close...
	if _, err := r.Run(context.Background(), testJob(0)); err != nil {
		t.Fatalf("memoized job rejected after Close: %v", err)
	}
	// ...but new work is refused.
	if _, err := r.Run(context.Background(), testJob(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestConcurrentSubmitters hammers Submit from many goroutines under the
// race detector: the singleflight map, queue and metrics must be safe.
func TestConcurrentSubmitters(t *testing.T) {
	var execs atomic.Int64
	r, err := New(Options{Workers: 4}, func(_ context.Context, j Job) (*machine.Result, error) {
		execs.Add(1)
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := r.Run(context.Background(), testJob(i%5)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := execs.Load(); got != 5 {
		t.Fatalf("executed %d times, want 5", got)
	}
}

func TestTraceOutput(t *testing.T) {
	var sb safeBuilder
	r, err := New(Options{Workers: 2, Trace: &sb}, func(_ context.Context, j Job) (*machine.Result, error) {
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), testJob(0)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "running fake on SC (small scale)") || !strings.Contains(out, "done fake on SC") {
		t.Fatalf("unexpected trace:\n%s", out)
	}
}

// TestExecRunsUnderJobLabels: each job's exec runs under the profiler
// labels app and config (the configuration's name), so a CPU profile of
// a batch splits per job.
func TestExecRunsUnderJobLabels(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]string{}
	r, err := New(Options{Workers: 2}, func(ctx context.Context, j Job) (*machine.Result, error) {
		app, _ := pprof.Label(ctx, "app")
		cfg, _ := pprof.Label(ctx, "config")
		mu.Lock()
		seen[app] = cfg
		mu.Unlock()
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := testJob(0), testJob(1)
	b.App = "other"
	b.Cfg.Model = config.RC
	b.Cfg.Contexts = 2
	if _, err := r.RunAll(context.Background(), []Job{a, b}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{a.App: a.Cfg.Name(), b.App: b.Cfg.Name()}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("labels (app: config) seen in exec: %v, want %v", seen, want)
	}
}

// TestHooksObserveLifecycle follows one job through the hooks. A blocker
// holds the only worker until the job has queued (otherwise the worker
// may start it before Submit fires OnQueued), and the test waits for
// OnFinish, which fires after waiters wake.
func TestHooksObserveLifecycle(t *testing.T) {
	job := testJob(1)
	var mu sync.Mutex
	var events []string
	record := func(key, event string) {
		if key != job.Key() {
			return
		}
		mu.Lock()
		events = append(events, event)
		mu.Unlock()
	}
	finished := make(chan struct{})
	hooks := &Hooks{
		OnQueued:       func(key string, _ Job) { record(key, "queued") },
		OnAttemptStart: func(key string, _ Job, _ int) { record(key, "start") },
		OnAttemptDone: func(key string, _ Job, _ int, err error) {
			if err != nil {
				record(key, "fail")
			} else {
				record(key, "ok")
			}
		},
		OnFinish: func(key string, _ Job, _ error, _ bool) {
			record(key, "finish")
			if key == job.Key() {
				close(finished)
			}
		},
	}
	release := make(chan struct{})
	r, err := New(Options{Workers: 1, Hooks: hooks}, func(_ context.Context, j Job) (*machine.Result, error) {
		if j.Key() != job.Key() {
			<-release
		}
		return fakeResult(j), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Submit(context.Background(), testJob(0))
	task := r.Submit(context.Background(), job)
	close(release)
	if _, err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	<-finished
	mu.Lock()
	got := strings.Join(events, " ")
	mu.Unlock()
	if got != "queued start ok finish" {
		t.Fatalf("hook sequence = %q", got)
	}
}

// A nil Hooks receiver must be safe on every dispatch method (the
// nilsafe analyzer enforces the guards; this exercises them).
func TestNilHooksSafe(t *testing.T) {
	var h *Hooks
	h.Queued("k", Job{})
	h.AttemptStart("k", Job{}, 1)
	h.AttemptDone("k", Job{}, 1, nil)
	h.Finish("k", Job{}, nil, false)
}

// TestFailedJobIsMemoized checks that a failure is memoized like a
// result: resubmitting a failed job returns its error without executing
// it again.
func TestFailedJobIsMemoized(t *testing.T) {
	var execs atomic.Int64
	r, err := New(Options{Workers: 1}, func(context.Context, Job) (*machine.Result, error) {
		execs.Add(1)
		return nil, errors.New("injected fault")
	})
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(0)
	for i := 0; i < 2; i++ {
		if _, err := r.Run(context.Background(), j); err == nil {
			t.Fatalf("run %d succeeded, want the injected fault", i+1)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
}

// safeBuilder is a mutex-guarded strings.Builder (Trace is written from
// worker goroutines).
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
