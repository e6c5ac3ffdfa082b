// Package cpu models the processor environment: an in-order blocking-read
// processor with one or more hardware contexts, the consistency-model
// enforcement (SC write stalls vs RC write buffering), prefetch issue, and
// the Tango-style coupling of application processes to the simulator.
package cpu

import (
	"fmt"

	"latsim/internal/config"
	"latsim/internal/mem"
	"latsim/internal/memsys"
	"latsim/internal/msync"
	"latsim/internal/obs"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// op is one submitted operation, an entry of a context's queue. It holds
// no pointers and takes 16 bytes: a synchronization operation's lock or
// barrier rides on the Context, since it is always alone in the queue.
type op struct {
	addr   mem.Addr
	cycles int32
	kind   TraceKind
}

// ctxState is the scheduling state of a hardware context.
type ctxState uint8

const (
	ctxReady ctxState = iota
	ctxRunning
	ctxBlocked
	ctxDone
)

// contKind says what a context does when its pending event, memory-system
// completion or synchronization grant fires — the continuation of its
// in-flight operation, stalls included. With Context.Act it lets a
// context schedule and wait as *itself*: no operation, and no stall on a
// full buffer, a fence, a lock or a barrier, allocates.
type contKind uint8

const (
	contNone         contKind = iota
	contResume                // compute block elapsed: run the next operation
	contPort                  // primary-port lockout over: re-check the port
	contReadClassify          // read issue cycle over: classify and route
	contWriteModel            // write issue cycle over: apply the consistency model
	contSpinEnd               // spin over: yield to sibling contexts
	contPrefetchIssue
	contLockIssue
	contUnlockIssue
	contBarrierIssue
	contWake       // long-latency completion: wake the blocked context
	contInlineDone // short no-switch stall completion: account and resume
	contWBRead     // buffered write to the read's line retired: retry
	contWBSpace    // a write-buffer slot freed: retry the stalled store
	contPFSpace    // a prefetch-buffer slot freed: retry the prefetch
	contFenced     // WC fence drained: issue the lock or unlock
	contArrived    // barrier arrival's increment retired: arrive
)

// Context is one hardware context: a register set bound to one application
// process. A Context is a sim.Actor: kernel events and memory-system
// completions re-enter it through Act, dispatching on cont.
type Context struct {
	idx   int
	p     *Processor
	co    *sim.Coroutine
	env   *Env
	cause stats.Bucket // why it blocked (single-context idle attribution)
	state ctxState
	cont  contKind // continuation of the in-flight operation

	// The operation being simulated, and those the process has submitted
	// behind it (q[qhead:qlen]). The processor empties the queue before
	// it resumes the process, so the process always appends to an empty
	// queue and every yield leaves at least one entry. (state, cont,
	// qhead and qlen share one word: the queue makes a Context large.)
	qhead, qlen uint8
	cur         op
	q           [queueCap]op
	lock        *msync.Lock    // lock of the current Lock or Unlock
	bar         *msync.Barrier // barrier of the current Barrier
	pollStep    func() bool    // the active Env.Poll step, nil outside one

	stallStart sim.Time     // start of a short no-switch or prefetch-buffer stall
	stallCause stats.Bucket // its bucket before inline attribution
	blockStart sim.Time     // when the context last blocked (obs latency)
}

// Act implements sim.Actor: the single entry through which kernel events
// and memory-system or synchronization completions re-enter the context.
func (c *Context) Act() { c.p.step(c) }

// poll runs the active Poll step once and reports whether it is done,
// ending the poll then.
func (c *Context) poll() bool {
	if c.pollStep() {
		c.pollStep = nil
		return true
	}
	if c.qlen == 0 {
		panic("cpu: a Poll step returned false with nothing queued")
	}
	return false
}

// Processor is one node's processor with its hardware contexts.
type Processor struct {
	k    *sim.Kernel
	cfg  *config.Config
	node *memsys.Node
	st   *stats.Proc

	ctxs      []*Context
	lastRun   *Context
	idle      bool
	idleSince sim.Time
	finished  int
	doneAt    sim.Time
	busyRun   sim.Time
	writeRun  uint32
	resumes   uint64 // coroutine resumes of the processes (host-side only)

	switchTo *Context // context a pending switch-penalty event resumes

	trace TraceFn       // optional reference-stream observer
	rec   *obs.Recorder // optional observability recorder (nil = off)
}

// Act implements sim.Actor for the processor's own events: the start event
// and context-switch penalties.
func (p *Processor) Act() {
	if c := p.switchTo; c == nil {
		p.dispatch()
	} else {
		p.switchTo = nil
		p.exec(c)
	}
}

// SetTrace installs a reference-stream observer (nil disables tracing).
func (p *Processor) SetTrace(fn TraceFn) { p.trace = fn }

// SetObs installs an observability recorder (nil disables, the default).
// See DESIGN.md: hooks are nil-guarded pointer checks, never interface
// dispatch, so the disabled path costs one predictable branch.
func (p *Processor) SetObs(rec *obs.Recorder) { p.rec = rec }

// NewProcessor creates the processor for a node.
func NewProcessor(k *sim.Kernel, cfg *config.Config, node *memsys.Node, st *stats.Proc) *Processor {
	return &Processor{k: k, cfg: cfg, node: node, st: st}
}

// AddWorker binds an application process to the next hardware context.
// pid/nprocs are the global process id and total process count the worker
// sees.
func (p *Processor) AddWorker(pid, nprocs int, body func(*Env)) {
	if len(p.ctxs) >= p.cfg.Contexts {
		panic(fmt.Sprintf("cpu: node %d already has %d contexts", p.node.ID(), p.cfg.Contexts))
	}
	c := &Context{idx: len(p.ctxs), p: p}
	c.env = &Env{c: c, pid: pid, nprocs: nprocs}
	c.co = sim.NewCoroutine(func() {
		body(c.env)
		c.env.drain()
	})
	p.ctxs = append(p.ctxs, c)
}

// Start schedules the processor to begin executing at time zero.
func (p *Processor) Start() {
	if len(p.ctxs) == 0 {
		p.doneAt = 0
		return
	}
	p.k.AtActor(0, p)
}

// Stop tears down the processes of unfinished contexts, unwinding each
// application body so its goroutine exits. A run that ends early
// (cancellation, watchdog, deadlock) must call it; after a completed run
// it is a no-op.
func (p *Processor) Stop() {
	for _, c := range p.ctxs {
		c.co.Stop()
	}
}

// Done reports whether every context has finished.
func (p *Processor) Done() bool { return len(p.ctxs) == 0 || p.finished == len(p.ctxs) }

// DoneAt returns the time the last context finished.
func (p *Processor) DoneAt() sim.Time { return p.doneAt }

// Resumes returns how many times the processor has resumed its
// processes' coroutines. It measures the simulator, not the simulated
// machine, so no result carries it.
func (p *Processor) Resumes() uint64 { return p.resumes }

// Stats returns the processor's statistics accumulator.
func (p *Processor) Stats() *stats.Proc { return p.st }

// Node returns the processor's memory-system node.
func (p *Processor) Node() *memsys.Node { return p.node }

// StateSummary describes context states (used in deadlock reports).
func (p *Processor) StateSummary() string {
	s := fmt.Sprintf("node %d:", p.node.ID())
	names := [...]string{"ready", "running", "blocked", "done"}
	for _, c := range p.ctxs {
		s += fmt.Sprintf(" ctx%d(pid %d)=%s", c.idx, c.env.pid, names[c.state])
		if c.state == ctxBlocked {
			s += fmt.Sprintf("[%v]", c.cause)
		}
	}
	return s
}

// account accrues d cycles to bucket b. This is the single accounting
// chokepoint: the processor attributes every cycle to exactly one bucket
// in causal order, which is what lets the obs recorder reconstruct a
// perfectly tiled per-processor timeline from these calls alone.
func (p *Processor) account(b stats.Bucket, d sim.Time) {
	if d > 0 {
		p.st.Add(b, d)
		if p.rec != nil {
			p.rec.Account(p.node.ID(), b, d)
		}
	}
}

// busy accrues useful cycles and extends the current run length.
func (p *Processor) busy(d sim.Time) {
	p.account(stats.Busy, d)
	p.busyRun += d
}

// recordRun closes the current run length (called when a context blocks).
func (p *Processor) recordRun() {
	p.st.RecordRun(p.busyRun)
	p.busyRun = 0
}

// closeWriteRun records and resets the current write run, if any. Pure
// counter accounting at issue time: it schedules nothing and cannot
// change simulated timing.
func (p *Processor) closeWriteRun() {
	if p.writeRun > 0 {
		p.st.RecordWriteRun(p.writeRun)
		p.writeRun = 0
	}
}

// single reports whether this is a single-context processor, which
// attributes idle time to its cause rather than the multi-context buckets.
func (p *Processor) single() bool { return len(p.ctxs) == 1 }

// inlineStallBucket picks the bucket for a short stall that does not cause
// a context switch.
func (p *Processor) inlineStallBucket(cause stats.Bucket) stats.Bucket {
	if p.single() {
		return cause
	}
	return stats.NoSwitchIdle
}

// step is the continuation dispatcher: every event or completion a context
// is waiting on re-enters the processor here.
func (p *Processor) step(c *Context) {
	switch c.cont {
	case contResume:
		p.exec(c)
	case contPort:
		p.withPort(c)
	case contReadClassify:
		p.classifyRead(c)
	case contWriteModel:
		p.writeModel(c)
	case contSpinEnd:
		if p.single() {
			p.exec(c)
		} else {
			c.state = ctxReady
			p.dispatch()
		}
	case contPrefetchIssue:
		p.issuePrefetch(c)
	case contLockIssue:
		p.issueLock(c)
	case contUnlockIssue:
		p.issueUnlock(c)
	case contBarrierIssue:
		p.issueBarrier(c)
	case contWake:
		p.wake(c)
	case contInlineDone:
		p.account(p.inlineStallBucket(c.stallCause), p.k.Now()-c.stallStart)
		p.exec(c)
	case contWBRead:
		p.wbReadRetired(c)
	case contWBSpace:
		p.wbSpaceFreed(c)
	case contPFSpace:
		if p.node.PFEnqueue(c.cur.addr, c.cur.kind == TPrefetchExcl) {
			p.account(stats.PrefetchOverhead, p.k.Now()-c.stallStart)
			p.exec(c)
		} else {
			p.node.PFOnSpace(c)
		}
	case contFenced:
		c.cont = contWake
		if c.cur.kind == TLock {
			c.lock.Acquire(p.node, c)
		} else if !p.node.WBEnqueueRelease(c.lock.Addr(), c.lock, c) {
			panic("cpu: write buffer full after drain fence")
		}
	case contArrived:
		c.cont = contWake
		c.bar.ArriveRetired(p.node, c)
	default:
		panic(fmt.Sprintf("cpu: context stepped with continuation %d", c.cont))
	}
}

// delayThen runs the cont continuation d cycles from now, as one kernel
// event.
func (p *Processor) delayThen(c *Context, d sim.Time, cont contKind) {
	c.cont = cont
	p.k.AfterActor(d, c)
}

// dispatch selects the next ready context, paying the switch penalty when
// the processor must load a different context's state.
func (p *Processor) dispatch() {
	next := p.pickReady()
	if next == nil {
		if p.finished == len(p.ctxs) {
			p.doneAt = p.k.Now()
			return
		}
		p.idle = true
		p.idleSince = p.k.Now()
		return
	}
	if p.lastRun != nil && p.lastRun != next && p.cfg.SwitchPenalty > 0 {
		p.st.Switches++
		if p.rec != nil {
			p.rec.Switch(p.node.ID())
		}
		pen := sim.Time(p.cfg.SwitchPenalty)
		p.account(stats.Switching, pen)
		p.lastRun = next
		p.switchTo = next
		p.k.AfterActor(pen, p)
		return
	}
	p.exec(next)
}

// pickReady round-robins over contexts starting after the last one run.
func (p *Processor) pickReady() *Context {
	n := len(p.ctxs)
	start := 0
	if p.lastRun != nil {
		start = p.lastRun.idx + 1
	}
	for i := 0; i < n; i++ {
		c := p.ctxs[(start+i)%n]
		if c.state == ctxReady {
			return c
		}
	}
	return nil
}

// exec simulates a context's next operation: the next queued one, or, when
// the queue is empty, the first one refill queues.
func (p *Processor) exec(c *Context) {
	c.state = ctxRunning
	p.lastRun = c
	if c.qlen == 0 && !p.refill(c) {
		c.state = ctxDone
		p.finished++
		p.recordRun()
		p.closeWriteRun()
		p.dispatch()
		return
	}
	c.cur = c.q[c.qhead]
	if c.qhead++; c.qhead == c.qlen {
		c.qhead, c.qlen = 0, 0
	}
	p.handleOp(c)
}

// refill fills a context's empty queue: by running its Poll step, if one
// is active, or by resuming the process, which runs native code until it
// yields or returns. It reports whether the process is still alive.
func (p *Processor) refill(c *Context) bool {
	if c.pollStep != nil && (!c.poll() || c.qlen > 0) {
		return true
	}
	p.resumes++
	return c.co.Resume()
}

// blockOn marks the context blocked (a long-latency operation) and
// schedules other work. The initiating call that will eventually wake the
// context must be made AFTER blockOn so the wakeup finds it blocked.
func (p *Processor) blockOn(c *Context, cause stats.Bucket) {
	c.state = ctxBlocked
	c.cause = cause
	c.blockStart = p.k.Now()
	p.recordRun()
	p.dispatch()
}

// wake makes a blocked context ready and restarts an idle processor,
// attributing the idle gap (to the blocking cause on a single-context
// processor, to all-idle time otherwise).
func (p *Processor) wake(c *Context) {
	if c.state != ctxBlocked {
		panic(fmt.Sprintf("cpu: wake of context in state %d", c.state))
	}
	if p.rec != nil && c.cause == stats.SyncStall {
		// The blocked stretch of a lock/unlock/barrier is the sync
		// operation's observed latency; locality keys off the home of the
		// synchronization variable itself.
		local := true
		switch c.cur.kind {
		case TLock, TUnlock:
			local = p.node.IsLocal(c.lock.Addr())
		case TBarrier:
			local = p.node.IsLocal(c.bar.CounterAddr())
		}
		p.rec.Miss(obs.SyncOp, local, p.k.Now()-c.blockStart)
	}
	c.state = ctxReady
	if p.idle {
		p.idle = false
		bucket := stats.AllIdle
		if p.single() {
			bucket = c.cause
		}
		p.account(bucket, p.k.Now()-p.idleSince)
		p.dispatch()
	}
}

// handleOp simulates the operation the context just submitted.
func (p *Processor) handleOp(c *Context) {
	switch c.cur.kind {
	case TCompute:
		// Computation on private data: the processor is busy for the
		// block's duration, then the process resumes.
		d := sim.Time(c.cur.cycles)
		p.busy(d)
		p.delayThen(c, d, contResume)
	case TPFCompute:
		// Prefetch address computation: pure overhead, not useful work.
		d := sim.Time(c.cur.cycles)
		p.account(stats.PrefetchOverhead, d)
		p.delayThen(c, d, contResume)
	case TSpin:
		// A software spin-wait: the polling instructions are busy time
		// (the paper counts PTHOR's task-queue spinning as busy), and on
		// a multiple-context processor the loop contains an explicit
		// switch hint (as on APRIL) so a spinning context cannot starve
		// its siblings, which hold the work it is waiting for.
		p.busy(sim.Time(c.cur.cycles))
		p.delayThen(c, sim.Time(c.cur.cycles), contSpinEnd)
	case TRead:
		p.st.SharedReads++
		p.closeWriteRun()
		p.withPort(c)
	case TWrite:
		p.st.SharedWrites++
		p.writeRun++
		p.withPort(c)
	case TPrefetch, TPrefetchExcl:
		p.st.Prefetches++
		// The prefetch instruction itself (plus implicit address
		// computation) is overhead, not useful work.
		d := sim.Time(p.cfg.PrefetchIssueCycles)
		p.account(stats.PrefetchOverhead, d)
		p.delayThen(c, d, contPrefetchIssue)
	case TLock:
		p.st.Locks++
		p.closeWriteRun()
		p.busy(1)
		p.delayThen(c, 1, contLockIssue)
	case TUnlock:
		p.closeWriteRun()
		p.busy(1)
		p.delayThen(c, 1, contUnlockIssue)
	case TBarrier:
		p.st.Barriers++
		p.closeWriteRun()
		p.busy(1)
		p.delayThen(c, 1, contBarrierIssue)
	default:
		panic("cpu: unknown operation")
	}
}

// withPort proceeds with the read or write once the primary-cache port is
// free, accounting lockout stalls (prefetch fills count as prefetch
// overhead, other contexts' fills as no-switch idle).
func (p *Processor) withPort(c *Context) {
	until, pf, busy := p.node.PrimaryBusy(p.k.Now())
	if busy {
		d := until - p.k.Now()
		bucket := stats.NoSwitchIdle
		if pf {
			bucket = stats.PrefetchOverhead
		} else if p.single() {
			bucket = stats.ReadStall
		}
		p.account(bucket, d)
		p.delayThen(c, d, contPort)
		return
	}
	if c.cur.kind == TRead {
		p.doRead(c)
	} else {
		p.doWrite(c)
	}
}

func (p *Processor) doRead(c *Context) {
	a := c.cur.addr
	if p.cfg.Model.Buffered() && p.node.WBPendingLine(a) {
		// A write to the same line is still buffered; the read cannot
		// bypass it.
		c.stallStart = p.k.Now()
		c.cont = contWBRead
		p.node.WBOnLineRetire(a, c)
		return
	}
	// Classify after the 1-cycle issue, at the same instant the access
	// starts: an in-flight fill completing during the issue cycle can
	// change the classification.
	p.busy(1)
	p.delayThen(c, 1, contReadClassify)
}

// wbReadRetired continues a read that waited on a buffered write to its
// line: if another write to the line is still pending the wait continues,
// otherwise the stall is accounted and the read restarts.
func (p *Processor) wbReadRetired(c *Context) {
	a := c.cur.addr
	if p.node.WBPendingLine(a) {
		p.node.WBOnLineRetire(a, c)
		return
	}
	p.account(p.inlineStallBucket(stats.ReadStall), p.k.Now()-c.stallStart)
	p.doRead(c)
}

func (p *Processor) classifyRead(c *Context) {
	a := c.cur.addr
	switch p.node.ClassifyRead(a) {
	case memsys.ClassPrimary:
		p.st.ReadPrimaryHit++
		p.exec(c)
	case memsys.ClassSecondary:
		// Short fill from the secondary cache: stall without switching.
		p.st.ReadSecHit++
		c.stallStart = p.k.Now()
		c.stallCause = stats.ReadStall
		c.cont = contInlineDone
		p.node.Read(a, c)
	case memsys.ClassMiss:
		p.blockOn(c, stats.ReadStall)
		c.cont = contWake
		p.node.Read(a, c)
	}
}

func (p *Processor) doWrite(c *Context) {
	a := c.cur.addr
	if p.cfg.CacheShared && p.node.ClassifyWrite(a) == memsys.ClassSecondary {
		p.st.WriteHits++
	} else if p.node.IsLocal(a) {
		p.st.WriteLocal++
	}
	p.busy(1)
	p.delayThen(c, 1, contWriteModel)
}

func (p *Processor) writeModel(c *Context) {
	if p.cfg.Model == config.SC {
		p.scWrite(c, c.cur.addr)
		return
	}
	p.rcWrite(c, c.cur.addr)
}

// scWrite stalls the processor until the write retires (sequential
// consistency). Secondary-owned hits stall 2 cycles without a context
// switch; misses are long-latency.
func (p *Processor) scWrite(c *Context, a mem.Addr) {
	if p.cfg.CacheShared && p.node.ClassifyWrite(a) == memsys.ClassSecondary {
		c.stallStart = p.k.Now()
		c.stallCause = stats.WriteStall
		c.cont = contInlineDone
		if !p.node.WBEnqueue(a, false, c) {
			panic("cpu: write buffer full under SC")
		}
		return
	}
	p.blockOn(c, stats.WriteStall)
	c.cont = contWake
	if !p.node.WBEnqueue(a, false, c) {
		panic("cpu: write buffer full under SC")
	}
}

// rcWrite buffers the write and continues; it only stalls when the write
// buffer is full.
func (p *Processor) rcWrite(c *Context, a mem.Addr) {
	if p.node.WBEnqueue(a, false, nil) {
		p.exec(c)
		return
	}
	p.blockOn(c, stats.WriteStall)
	p.awaitWBSpace(c)
}

// awaitWBSpace parks a context whose store found the write buffer full
// until a slot frees (contWBSpace).
func (p *Processor) awaitWBSpace(c *Context) {
	c.cont = contWBSpace
	p.node.WBOnSpace(c)
}

// wbSpaceFreed retries the store of a context that found the write buffer
// full: a write or an unlock wakes the context once buffered, a barrier
// arrival goes on to wait for its increment to retire.
func (p *Processor) wbSpaceFreed(c *Context) {
	var ok bool
	switch c.cur.kind {
	case TWrite:
		ok = p.node.WBEnqueue(c.cur.addr, false, nil)
	case TUnlock:
		ok = p.node.WBEnqueueRelease(c.lock.Addr(), c.lock, nil)
	default:
		p.arrive(c)
		return
	}
	if ok {
		p.wake(c)
	} else {
		p.node.WBOnSpace(c)
	}
}

func (p *Processor) issuePrefetch(c *Context) {
	if p.node.PFEnqueue(c.cur.addr, c.cur.kind == TPrefetchExcl) {
		p.exec(c)
		return
	}
	// Prefetch buffer full: the processor stalls (overhead) until a slot
	// frees (contPFSpace).
	c.stallStart = p.k.Now()
	c.cont = contPFSpace
	p.node.PFOnSpace(c)
}

func (p *Processor) issueLock(c *Context) {
	p.blockOn(c, stats.SyncStall)
	if p.cfg.Model == config.WC {
		// Weak consistency: a synchronization access is a full fence —
		// all previous accesses (and their invalidations) complete
		// before it issues (contFenced).
		c.cont = contFenced
		p.node.WBOnDrained(c)
		return
	}
	c.cont = contWake
	c.lock.Acquire(p.node, c)
}

func (p *Processor) issueUnlock(c *Context) {
	lk := c.lock
	if p.cfg.Model == config.RC || p.cfg.Model == config.PC {
		// RC: the unlock store is a release — it retires from the write
		// buffer only after all previous writes complete and their
		// invalidations are acknowledged. PC: it simply performs in
		// program order behind the buffered writes. Either way the
		// processor continues immediately.
		if p.node.WBEnqueueRelease(lk.Addr(), lk, nil) {
			p.exec(c)
			return
		}
		p.blockOn(c, stats.SyncStall)
		p.awaitWBSpace(c)
		return
	}
	if p.cfg.Model == config.WC {
		// Weak consistency: the unlock is a synchronization access —
		// wait for everything before it, then stall until it completes.
		p.blockOn(c, stats.SyncStall)
		c.cont = contFenced
		p.node.WBOnDrained(c)
		return
	}
	// SC: stall until the unlock store retires. A secondary-owned unlock
	// with nothing outstanding is a short no-switch stall.
	short := p.cfg.CacheShared && p.node.WBEmpty() && p.node.PendingAcks() == 0 &&
		p.node.ClassifyWrite(lk.Addr()) == memsys.ClassSecondary
	if short {
		c.stallStart = p.k.Now()
		c.stallCause = stats.SyncStall
		c.cont = contInlineDone
		if !p.node.WBEnqueueRelease(lk.Addr(), lk, c) {
			panic("cpu: write buffer full under SC")
		}
		return
	}
	p.blockOn(c, stats.SyncStall)
	c.cont = contWake
	if !p.node.WBEnqueueRelease(lk.Addr(), lk, c) {
		panic("cpu: write buffer full under SC")
	}
}

func (p *Processor) issueBarrier(c *Context) {
	p.blockOn(c, stats.SyncStall)
	p.arrive(c)
}

// arrive buffers a barrier arrival's increment, a release-marked write on
// the barrier counter: it waits for all previous writes and acks (the
// barrier's fence semantics) and serializes through the counter's home
// node. When it retires the context arrives (contArrived) and waits for
// the barrier's release (contWake).
func (p *Processor) arrive(c *Context) {
	c.cont = contArrived
	if !p.node.WBEnqueue(c.bar.CounterAddr(), true, c) {
		p.awaitWBSpace(c)
	}
}
