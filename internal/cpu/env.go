package cpu

import (
	"fmt"
	"math"

	"latsim/internal/mem"
	"latsim/internal/msync"
	"latsim/internal/sim"
)

// Env is the interface an application process uses to interact with the
// simulated machine, in the style of the Tango reference generator: the
// process runs native Go code and submits every shared-memory reference,
// synchronization operation, and block of computation to the simulator,
// blocking until the architecture model completes it.
//
// Every operation yields to the simulator — native code between two
// operations executes at the simulated completion time of the first, which
// the applications rely on when they poll shared Go state (PTHOR's task
// queues) — except inside a region (Queue … Wait), where memory and
// compute operations are queued and the process runs on without
// observing their completion, and inside a Poll step, which the processor
// runs on the simulator's side at each of those completion times instead
// of switching back to the process. A compute block costs one kernel
// event and no allocation (see Processor.delayThen).
type Env struct {
	c      *Context
	pid    int
	nprocs int
	region bool // between Queue and Wait
}

// queueCap is the capacity of a context's operation queue: inside a
// region the process yields once per queueCap operations at most.
const queueCap = 16

// ID returns the global process id (0..NumProcs-1). With multiple hardware
// contexts the process count is Procs*Contexts.
func (e *Env) ID() int { return e.pid }

// NumProcs returns the total number of application processes.
func (e *Env) NumProcs() int { return e.nprocs }

// NodeID returns the processing node this process runs on.
func (e *Env) NodeID() int { return e.c.p.node.ID() }

// Now returns the current simulated time. Between operations it reads as
// the completion time of the previous operation, so microbenchmarks can
// measure per-operation latencies. Inside a region it first waits for the
// queued operations, so it reads the same time there.
func (e *Env) Now() sim.Time {
	e.outsideStep("Now")
	e.drain()
	return e.c.p.k.Now()
}

// Queue opens a region (or keeps one open). Until Wait, Compute,
// PFCompute, Read, Write, Prefetch and PrefetchExcl queue their operation
// and return at once: the processor issues them in order, exactly as it
// would without the region, but without switching back to the process
// between them. Lock, Unlock, Barrier, SpinWait, Now and Poll wait for
// the queued operations first and leave the region open.
//
// The native code inside a region runs before the queued operations have
// completed in simulated time, so it must not read state that another
// process writes, nor write state that another process reads, while the
// region runs. Under that contract a region changes no simulated result;
// it only saves the coroutine switch per operation.
func (e *Env) Queue() {
	e.outsideStep("Queue")
	e.region = true
}

// Wait blocks until every queued operation has completed and closes the
// region. A worker that returns inside a region still has its queued
// operations simulated.
func (e *Env) Wait() {
	e.outsideStep("Wait")
	e.drain()
	e.region = false
}

// Poll runs a polling loop on the simulator's side. It waits for any
// queued operations (leaving a region open), then calls step, which
// queues up to 16 operations and reports whether the loop is done. While
// it is not, the processor runs the queued operations and, when they have
// completed, calls step again, at the simulated instant the process would
// have resumed after them. So step reads shared Go state exactly when the
// plain loop would, and the process resumes only once step has returned
// true and the operations it queued have completed.
//
// step runs on the process's goroutine the first time and on the
// simulator's after that. Inside it, Compute, PFCompute, Read, Write,
// Prefetch, PrefetchExcl and SpinWait queue their operation and return
// (SpinWait queues its spin behind the step's other operations instead
// of waiting for them). Lock, Unlock, Barrier, Now, Queue, Wait and Poll
// panic there, because each would yield on the simulator's goroutine,
// and so does a step that returns false with nothing queued, which would
// poll forever at one simulated instant. The trace hook runs once per
// operation, when the step queues it. Native code after a step's first
// operation runs before that operation completes, so, as in a region, it
// must not use state another process uses. A step built on every call
// allocates: build it once per process and reuse it.
func (e *Env) Poll(step func() bool) {
	e.outsideStep("Poll")
	e.drain()
	c := e.c
	c.pollStep = step
	if !c.poll() || c.qlen > 0 {
		c.co.Yield()
	}
}

// outsideStep panics when a Poll step makes call.
func (e *Env) outsideStep(call string) {
	if e.c.pollStep != nil {
		panic("cpu: " + call + " inside a Poll step")
	}
}

// drain yields until the processor has run every queued operation.
func (e *Env) drain() {
	if e.c.qlen > 0 {
		e.c.co.Yield()
	}
}

// TraceKind identifies an operation a process submits. It is also the
// stable encoding of operations in serialized traces.
type TraceKind uint8

// Operation kinds (stable encoding for serialized traces).
const (
	TCompute TraceKind = iota
	TPFCompute
	TSpin
	TRead
	TWrite
	TPrefetch
	TPrefetchExcl
	TLock
	TUnlock
	TBarrier
)

// TraceFn observes every operation a process submits (Tango's reference
// stream). Lock and bar are non-nil for synchronization operations.
type TraceFn func(pid int, kind TraceKind, addr mem.Addr, n int, lock *msync.Lock, bar *msync.Barrier)

// trace reports one operation to the installed observer, at the moment the
// application issues it.
func (e *Env) trace(k TraceKind, addr mem.Addr, n int, lock *msync.Lock, bar *msync.Barrier) {
	if tr := e.c.p.trace; tr != nil {
		tr(e.pid, k, addr, n, lock, bar)
	}
}

// submit traces and queues a memory or compute operation. Outside a
// region and a Poll step, and whenever a region fills the queue, the
// process yields until the processor has run every queued operation.
func (e *Env) submit(k TraceKind, a mem.Addr, n int) {
	e.trace(k, a, n, nil, nil)
	c := e.c
	if c.qlen == queueCap { // only a Poll step gets here: a region yields when it fills
		panic(fmt.Sprintf("cpu: a Poll step queued more than %d operations", queueCap))
	}
	c.q[c.qlen] = op{addr: a, cycles: cycles(n), kind: k}
	c.qlen++
	if c.pollStep == nil && (!e.region || c.qlen == queueCap) {
		c.co.Yield()
	}
}

// submitAlone runs a synchronization operation or a spin, which are never
// queued behind anything: it waits for the queued operations, traces the
// operation at that point (so a trace sees it where an unqueued run does),
// and yields until the operation completes, because the caller observes
// its completion. The lock or barrier rides on the Context, not in the
// queue entry.
func (e *Env) submitAlone(k TraceKind, n int, lk *msync.Lock, b *msync.Barrier) {
	e.drain()
	e.trace(k, 0, n, lk, b)
	c := e.c
	c.lock, c.bar = lk, b
	c.q[0] = op{cycles: cycles(n), kind: k}
	c.qlen = 1
	c.co.Yield()
}

// cycles narrows a compute or spin length to its queue-entry field.
func cycles(n int) int32 {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("cpu: a %d-cycle operation exceeds the 2^31-1 cycle limit", n))
	}
	return int32(n)
}

// Compute models n cycles of instruction execution that do not reference
// shared data (private data and instruction fetches hit their caches).
func (e *Env) Compute(n int) {
	if n > 0 {
		e.submit(TCompute, 0, n)
	}
}

// PFCompute models n cycles of extra instructions executed only to decide
// and address prefetches; it is accounted as prefetch overhead.
func (e *Env) PFCompute(n int) {
	if n > 0 {
		e.submit(TPFCompute, 0, n)
	}
}

// SpinWait models one iteration of a software polling loop: n cycles of
// busy spinning, followed (on multiple-context processors) by a voluntary
// switch hint so sibling contexts can run. Use inside spin loops on
// application data structures such as task queues.
func (e *Env) SpinWait(n int) {
	if n <= 0 {
		n = 1
	}
	if e.c.pollStep != nil {
		e.submit(TSpin, 0, n)
		return
	}
	e.submitAlone(TSpin, n, nil, nil)
}

// Read performs a shared-data read. The process blocks until the read
// completes (reads are blocking on the modeled processor).
func (e *Env) Read(a mem.Addr) { e.submit(TRead, a, 0) }

// Write performs a shared-data write. Under SC the process stalls until
// the write retires; under RC it continues once the write is buffered.
func (e *Env) Write(a mem.Addr) { e.submit(TWrite, a, 0) }

// Prefetch issues a non-binding read-shared prefetch for a's line.
func (e *Env) Prefetch(a mem.Addr) { e.submit(TPrefetch, a, 0) }

// PrefetchExcl issues a read-exclusive prefetch, acquiring ownership so a
// subsequent write retires quickly.
func (e *Env) PrefetchExcl(a mem.Addr) { e.submit(TPrefetchExcl, a, 0) }

// ReadRange reads every cache line in [a, a+bytes).
func (e *Env) ReadRange(a mem.Addr, bytes int) { e.lines(TRead, a, bytes) }

// WriteRange writes every cache line in [a, a+bytes).
func (e *Env) WriteRange(a mem.Addr, bytes int) { e.lines(TWrite, a, bytes) }

// PrefetchRange issues read prefetches covering [a, a+bytes).
func (e *Env) PrefetchRange(a mem.Addr, bytes int, excl bool) {
	if excl {
		e.lines(TPrefetchExcl, a, bytes)
	} else {
		e.lines(TPrefetch, a, bytes)
	}
}

// lines submits one k operation per cache line of [a, a+bytes). No native
// code runs between the lines, so they form a region: the caller's, or
// one of their own that ends with the last line.
func (e *Env) lines(k TraceKind, a mem.Addr, bytes int) {
	if bytes <= 0 {
		return
	}
	open := e.region
	e.region = true
	for l := mem.LineOf(a); l <= mem.LineOf(a+mem.Addr(bytes)-1); l++ {
		e.submit(k, mem.AddrOf(l), 0)
	}
	if !open {
		e.Wait()
	}
}

// Lock acquires lk (an acquire access: the process blocks until granted).
func (e *Env) Lock(lk *msync.Lock) {
	e.outsideStep("Lock")
	e.submitAlone(TLock, 0, lk, nil)
}

// Unlock releases lk (a release access: under RC it waits, inside the
// write buffer, for all previous writes and their invalidations).
func (e *Env) Unlock(lk *msync.Lock) {
	e.outsideStep("Unlock")
	e.submitAlone(TUnlock, 0, lk, nil)
}

// Barrier waits until every participant arrives at b.
func (e *Env) Barrier(b *msync.Barrier) {
	e.outsideStep("Barrier")
	e.submitAlone(TBarrier, 0, nil, b)
}
