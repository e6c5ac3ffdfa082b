package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
	"latsim/internal/runner"
)

// span is one timed interval of the traced pass. Spans of one iteration
// share Iter; Parent is the ID of the span that caused this one (0 for an
// iteration's root).
type span struct {
	ID, Parent, Iter int
	Lane             int // Chrome trace thread: 0 for the iteration, one per sweep job
	Name             string
	Start, End       time.Duration // since the tracer's epoch
}

// tracer records spans in memory during the traced pass. All methods are
// safe on a nil tracer (the timed pass) and from several goroutines (the
// sweep's workers).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	iter  int
	spans []span
	jobs  map[string]*sweepJob // sweep jobs of the current iteration, by key
}

// sweepJob tracks one runner job's lifecycle spans.
type sweepJob struct {
	lane        int
	queued      bool
	queuedAt    time.Duration
	exec, store int // span IDs
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), jobs: map[string]*sweepJob{}} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(name, parent, lane)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.endLocked(id)
	t.mu.Unlock()
}

func (t *tracer) beginLocked(name string, parent, lane int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Lane: lane, Name: name, Start: t.now()})
	return id
}

func (t *tracer) endLocked(id int) {
	if id != 0 {
		t.spans[id-1].End = t.now()
	}
}

// startIter begins iteration i: its root span is the parent of the rest.
func (t *tracer) startIter(i int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.iter = i
	t.jobs = map[string]*sweepJob{}
	t.mu.Unlock()
	return t.begin(name, 0, 0)
}

// hooks returns runner hooks that record each sweep job's queue, exec and
// store spans under parent: Queued→AttemptStart, AttemptStart→AttemptDone
// and AttemptDone→Finish. The runner may start a job before its Queued
// hook has run; such a job waited for no queue and gets no queue span.
func (t *tracer) hooks(parent int) *runner.Hooks {
	if t == nil {
		return nil
	}
	// locked runs f on the job with key, holding t.mu.
	locked := func(key string, f func(j *sweepJob)) {
		t.mu.Lock()
		defer t.mu.Unlock()
		j := t.jobs[key]
		if j == nil {
			j = &sweepJob{lane: len(t.jobs) + 1}
			t.jobs[key] = j
		}
		f(j)
	}
	return &runner.Hooks{
		OnQueued: func(key string, _ runner.Job) {
			locked(key, func(j *sweepJob) {
				if j.exec == 0 {
					j.queued, j.queuedAt = true, t.now()
				}
			})
		},
		OnAttemptStart: func(key string, _ runner.Job, _ int) {
			locked(key, func(j *sweepJob) {
				if j.queued {
					id := t.beginLocked("runner.queue", parent, j.lane)
					t.spans[id-1].Start = j.queuedAt
					t.endLocked(id)
				}
				j.exec = t.beginLocked("runner.exec", parent, j.lane)
			})
		},
		OnAttemptDone: func(key string, _ runner.Job, _ int, _ error) {
			locked(key, func(j *sweepJob) {
				t.endLocked(j.exec)
				j.store = t.beginLocked("runner.store", parent, j.lane)
			})
		},
		OnFinish: func(key string, _ runner.Job, _ error, _ bool) {
			locked(key, func(j *sweepJob) { t.endLocked(j.store) })
		},
	}
}

// execSpan returns the runner.exec span and the lane of the sweep job
// with key.
func (t *tracer) execSpan(key string) (id, lane int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if j := t.jobs[key]; j != nil {
		return j.exec, j.lane
	}
	return 0, 0
}

// spanTotals sums, per iteration, each span name's duration and the
// self time of machine.run (its duration minus its App.Setup child).
func spanTotals(spans []span) map[int]map[string]time.Duration {
	children := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range spans {
		if out[s.Iter] == nil {
			out[s.Iter] = map[string]time.Duration{}
		}
		d := s.End - s.Start
		if s.Name == "machine.run" {
			d -= children[s.ID]
		}
		out[s.Iter][s.Name] += d
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace_event JSON, one process
// per workload.
func writeChromeTrace(path string, byWorkload map[string][]span, order []string) error {
	type args struct {
		ID       int    `json:"id"`
		Parent   int    `json:"parent"`
		Iter     int    `json:"iter"`
		Workload string `json:"workload"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	var events []event
	for pid, w := range order {
		for _, s := range byWorkload[w] {
			events = append(events, event{
				Name: s.Name, Ph: "X", Pid: pid + 1, Tid: s.Lane,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: args{ID: s.ID, Parent: s.Parent, Iter: s.Iter, Workload: w},
			})
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Operation classes counted through cpu.Processor.SetTrace.
const (
	opCompute = iota
	opRead
	opWrite
	opPrefetch
	opSync
	numOps
)

var opNames = [numOps]string{"compute", "read", "write", "prefetch", "sync"}

// opCounts counts the operations application processes submit through
// cpu.Env; each is one coroutine handoff.
type opCounts [numOps]uint64

func (c *opCounts) observe(_ int, k cpu.TraceKind, _ mem.Addr, _ int, _ *msync.Lock, _ *msync.Barrier) {
	switch k {
	case cpu.TCompute, cpu.TPFCompute, cpu.TSpin:
		c[opCompute]++
	case cpu.TRead:
		c[opRead]++
	case cpu.TWrite:
		c[opWrite]++
	case cpu.TPrefetch, cpu.TPrefetchExcl:
		c[opPrefetch]++
	default:
		c[opSync]++
	}
}

// tracedApp wraps an application: its Setup installs the op counter on
// every processor and is timed as the apps.setup span.
type tracedApp struct {
	machine.App
	t      *tracer
	ops    *opCounts
	parent int
	lane   int
}

func (a *tracedApp) Setup(m *machine.Machine) error {
	for _, p := range m.Processors() {
		p.SetTrace(a.ops.observe)
	}
	id := a.t.begin("apps.setup", a.parent, a.lane)
	defer a.t.end(id)
	return a.App.Setup(m)
}
