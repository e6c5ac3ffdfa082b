package runner

// Hooks observes the lifecycle of tasks inside a Runner. A caller
// threads one through Options to follow each job — queued, executing,
// finished — without polling; the host-time benchmark (bench/) records
// per-job queue, execution and store spans this way.
//
// All exported methods are nil-safe, following the same contract as the
// observability hook types (DESIGN.md §4b): the runner holds a plain
// *Hooks that is usually nil and calls through it unconditionally, so a
// hook-free Runner pays one predicted branch per event. Callbacks run on
// worker goroutines with no Runner locks held; they must be fast and
// must not call back into the Runner.
type Hooks struct {
	// OnQueued fires when a newly submitted job enters the queue
	// (deduplicated submissions do not fire it again).
	OnQueued func(key string, j Job)
	// OnAttemptStart fires before a job executes. The runner executes a
	// job at most once, so attempt is always 1. Cache hits and tasks
	// whose submitter gave up before a worker reached them never
	// execute.
	OnAttemptStart func(key string, j Job, attempt int)
	// OnAttemptDone fires after the execution returns; err is nil on
	// success and attempt is always 1.
	OnAttemptDone func(key string, j Job, attempt int, err error)
	// OnFinish fires exactly once per task, after its outcome — result,
	// cache hit, or final error — is published.
	OnFinish func(key string, j Job, err error, fromCache bool)
}

// Queued dispatches OnQueued.
func (h *Hooks) Queued(key string, j Job) {
	if h == nil {
		return
	}
	if h.OnQueued != nil {
		h.OnQueued(key, j)
	}
}

// AttemptStart dispatches OnAttemptStart.
func (h *Hooks) AttemptStart(key string, j Job, attempt int) {
	if h == nil {
		return
	}
	if h.OnAttemptStart != nil {
		h.OnAttemptStart(key, j, attempt)
	}
}

// AttemptDone dispatches OnAttemptDone.
func (h *Hooks) AttemptDone(key string, j Job, attempt int, err error) {
	if h == nil {
		return
	}
	if h.OnAttemptDone != nil {
		h.OnAttemptDone(key, j, attempt, err)
	}
}

// Finish dispatches OnFinish.
func (h *Hooks) Finish(key string, j Job, err error, fromCache bool) {
	if h == nil {
		return
	}
	if h.OnFinish != nil {
		h.OnFinish(key, j, err, fromCache)
	}
}
