package pthor

import (
	"fmt"
	"math/rand"

	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

// Params configures a PTHOR run. The paper simulates 5 clock cycles of an
// ~11,000-gate circuit.
type Params struct {
	Circuit  CircuitParams
	Cycles   int
	Prefetch bool
	Seed     int64
	// Window is the number of combinational ranks per virtual timestep.
	// Activations for a gate are scheduled in the timestep of its rank
	// window; inside a window evaluation is chaotic-relaxation (gates
	// re-activate when inputs change), between windows a global time
	// advance (the deadlock-resolution barrier) runs.
	Window int
}

// Default matches the paper's experiment.
func Default() Params {
	return Params{Circuit: DefaultCircuit(), Cycles: 5, Seed: 1991, Window: 2}
}

// Scaled returns a reduced run for benchmarks.
func Scaled(gates, cycles int) Params {
	p := Default()
	p.Circuit.Gates = gates
	p.Cycles = cycles
	if gates < p.Circuit.Depth*8 {
		p.Circuit.Depth = max(2, gates/16)
	}
	return p
}

const (
	// recordBytes is one element record: type, state, input pointers,
	// input values/times, output value/time, fanout pointer and count,
	// plus simulator bookkeeping — PTHOR element records are large.
	recordBytes = 192
	// queueRecBytes is a task-queue descriptor (head, tail, count).
	queueRecBytes = 32
	// queueCap is the per-(process,step) entry-ring capacity in entries.
	queueCap = 1024
	// popBatch tasks are taken per queue-lock acquisition.
	popBatch = 8
)

// task is one activation: evaluate gate at the current timestep.
type task struct {
	gate int32
}

// App implements machine.App for PTHOR.
type App struct {
	p Params
	c *Circuit

	val       []bool
	owner     []int32
	elemAddr  []mem.Addr
	fanAddr   []mem.Addr
	queuedFor []int64 // dedup: global step id the gate is queued for

	nprocs   int
	maxSteps int

	queues    [][][]task // [proc][step] pending activations
	qRecAddr  [][]mem.Addr
	qEntAddr  []mem.Addr // per proc: entry ring base
	qlocks    []*msync.Lock
	elemLocks []*msync.Lock // per element: guards input-event delivery

	pendingStep  []int
	pendingTotal int
	pendAddr     mem.Addr

	bar *msync.Barrier

	evals     int64 // total gate evaluations (diagnostics)
	ownedFFs  [][]int32
	ownedComb [][]int32
}

// New creates a PTHOR instance.
func New(p Params) *App {
	if p.Cycles < 1 {
		panic(fmt.Sprintf("pthor: bad cycles %d", p.Cycles))
	}
	if p.Window < 1 {
		p.Window = 2
	}
	return &App{p: p}
}

// stepOf maps a gate's combinational rank to its virtual timestep.
func (a *App) stepOf(level int) int {
	s := level / a.p.Window
	if s >= a.maxSteps {
		s = a.maxSteps - 1
	}
	return s
}

// Name implements machine.App.
func (a *App) Name() string { return "PTHOR" }

// Params returns the run parameters.
func (a *App) Params() Params { return a.p }

// Evals returns the number of gate evaluations performed.
func (a *App) Evals() int64 { return a.evals }

// Values returns the settled gate values (for verification).
func (a *App) Values() []bool { return a.val }

// Circuit returns the generated netlist.
func (a *App) Circuit() *Circuit { return a.c }

// Setup generates the circuit, partitions it, allocates the shared
// element records, fanout lists and task queues, and seeds the initial
// activations (the cycle-0 settle evaluates every combinational gate).
func (a *App) Setup(m *machine.Machine) error {
	a.nprocs = m.Config().TotalProcesses()
	a.c = GenerateCircuit(a.p.Circuit)
	n := len(a.c.Gates)
	a.maxSteps = a.c.Depth/a.p.Window + 2

	a.val = make([]bool, n)
	a.owner = make([]int32, n)
	a.elemAddr = make([]mem.Addr, n)
	a.fanAddr = make([]mem.Addr, n)
	a.queuedFor = make([]int64, n)
	for i := range a.queuedFor {
		a.queuedFor[i] = -1
	}

	// Initial flip-flop state (same seed as the reference simulator).
	rng := rand.New(rand.NewSource(a.p.Seed))
	for _, f := range a.c.FFs {
		a.val[f] = rng.Intn(2) == 1
	}

	// Partition: bit-slice style — each process owns the same relative
	// chunk of every level (and of the flip-flops). Since inputs are
	// biased to the same relative position in earlier levels, most nets
	// stay process-internal, and every level's work is spread over all
	// processes (a contiguous-id partition would hand each whole level
	// to one process and serialize the simulation).
	a.ownedFFs = make([][]int32, a.nprocs)
	a.ownedComb = make([][]int32, a.nprocs)
	levelStart := map[int][2]int{} // level -> [start id, count]
	for _, g := range a.c.Comb {
		lvl := a.c.Gates[g].Level
		e := levelStart[lvl]
		if e[1] == 0 {
			e[0] = int(g)
		}
		e[1]++
		levelStart[lvl] = e
	}
	for g := 0; g < n; g++ {
		var p int
		if a.c.Gates[g].Kind == FF {
			p = g * a.nprocs / len(a.c.FFs)
		} else {
			e := levelStart[a.c.Gates[g].Level]
			p = (g - e[0]) * a.nprocs / e[1]
		}
		if p >= a.nprocs {
			p = a.nprocs - 1
		}
		a.owner[g] = int32(p)
		if a.c.Gates[g].Kind == FF {
			a.ownedFFs[p] = append(a.ownedFFs[p], int32(g))
		} else {
			a.ownedComb[p] = append(a.ownedComb[p], int32(g))
		}
	}

	// Element records, their delivery locks, and fanout arrays live on
	// their owner's node.
	a.elemLocks = make([]*msync.Lock, n)
	for g := 0; g < n; g++ {
		node := m.NodeOfProcess(int(a.owner[g]))
		a.elemAddr[g] = m.AllocOnNode(recordBytes, node)
		a.elemLocks[g] = m.NewLockOnNode(node)
		fo := len(a.c.Gates[g].Fanout)
		if fo == 0 {
			fo = 1
		}
		a.fanAddr[g] = m.AllocOnNode(fo*8, node)
	}

	// Task queues: per (process, step) descriptor + per-process entry
	// ring, on the owning process's node.
	a.queues = make([][][]task, a.nprocs)
	a.qRecAddr = make([][]mem.Addr, a.nprocs)
	a.qEntAddr = make([]mem.Addr, a.nprocs)
	a.qlocks = make([]*msync.Lock, a.nprocs)
	for p := 0; p < a.nprocs; p++ {
		node := m.NodeOfProcess(p)
		a.queues[p] = make([][]task, a.maxSteps)
		a.qRecAddr[p] = make([]mem.Addr, a.maxSteps)
		for s := 0; s < a.maxSteps; s++ {
			a.qRecAddr[p][s] = m.AllocOnNode(queueRecBytes, node)
		}
		a.qEntAddr[p] = m.AllocOnNode(queueCap*4, node)
		a.qlocks[p] = m.NewLockOnNode(node)
	}

	a.pendingStep = make([]int, a.maxSteps)
	a.pendAddr = m.Alloc(a.maxSteps * mem.LineSize)
	a.bar = m.NewBarrier(a.nprocs)

	// Seed the cycle-0 settle: every combinational gate is activated at
	// its rank window's timestep (free at setup, like loading the
	// initial event list).
	for _, g := range a.c.Comb {
		a.enqueueNative(int(a.owner[g]), a.stepOf(a.c.Gates[g].Level), g)
	}
	return nil
}

// enqueueNative adds an activation without simulated references (setup).
func (a *App) enqueueNative(proc, step int, g int32) {
	if step >= a.maxSteps {
		step = a.maxSteps - 1
	}
	gs := int64(step)
	if a.queuedFor[g] == gs {
		return
	}
	a.queuedFor[g] = gs
	a.queues[proc][step] = append(a.queues[proc][step], task{gate: g})
	a.pendingStep[step]++
	a.pendingTotal++
}

func (a *App) pendingLineAddr(step int) mem.Addr {
	return a.pendAddr + mem.Addr((step%a.maxSteps)*mem.LineSize)
}

// globalStep builds the dedup tag for (cycle, step).
func globalStep(cycle, step int) int64 { return int64(cycle)<<32 | int64(step) }

// Worker runs one process of the distributed-time simulation.
func (a *App) Worker(e *cpu.Env, pid, nprocs int) {
	w := &idler{a: a, e: e, pid: pid}
	w.step = w.poll // bound once: a method value allocates
	e.Barrier(a.bar)
	for cyc := 0; cyc <= a.p.Cycles; cyc++ {
		// Settle phase: evaluate activated elements until the whole
		// machine is quiescent.
		a.drainCycle(e, w, cyc)
		e.Barrier(a.bar)
		if cyc == a.p.Cycles {
			break // final settle done; no further clock edge
		}
		// Clock edge: latch owned flip-flops and activate the fanouts
		// of those that changed (next cycle's activations).
		a.edgePhase(e, pid, cyc)
		e.Barrier(a.bar)
	}
}

// drainCycle processes this process's activations until the clock cycle
// has globally settled. Activations are binned by virtual time (rank
// windows) and the process always services its lowest-time bin first —
// the conservative Chandy–Misra discipline applied locally — so elements
// rarely evaluate before their inputs are final; cross-process stragglers
// simply re-activate the element. Out of local tasks, the process polls
// other processes' task queues and steals a batch (PTHOR's queues are
// visible to every processor; polling them costs remote misses, which is
// where an out-of-work processor spends its time). With nothing to steal
// either, it checks for global quiescence and spins on its own queue
// until new work arrives or the machine is quiescent. That polling is
// ordinary instruction execution and shows up as busy time (Section 2.2
// of the paper); the idler runs it on the simulator's side.
func (a *App) drainCycle(e *cpu.Env, w *idler, cyc int) {
	w.stealFrom = w.pid
	for {
		if a.runBatch(e, w.pid, cyc, w.pid, popBatch) {
			continue
		}
		w.probe, w.at = 0, idleStart
		for {
			e.Poll(w.step)
			if w.at != idleProbed || a.runBatch(e, w.pid, cyc, w.stealFrom, popBatch/2) {
				break
			}
			// Every pop from the victim came back empty: on to the
			// round's next probe.
			w.probe, w.at = w.probe+1, idleStart
		}
		if w.at == idleCounted {
			return // globally quiescent
		}
		// A batch was stolen, or own work arrived during the spin.
	}
}

// idlePhase is what the operations an idler queued last were for.
type idlePhase uint8

const (
	idleStart   idlePhase = iota // nothing queued yet: probe next
	idleProbed                   // a victim's descriptor was read
	idleCounted                  // the pending counter was read
	idleSpun                     // the spin on the own queue ended
)

// idler is one process's idle loop as a cpu.Env.Poll step: up to three
// steal probes, the quiescence check and a spin on its own queue, round
// after round. It meets the Poll contract. The processor calls step at
// each instant the plain loop resumed (after each probe's Compute, the
// quiescence check's Compute and the spin), so it reads the queue lengths
// and the pending count exactly when the plain loop read them. It writes
// only its own fields, which no other process reads, and queues only
// Read, Compute and SpinWait. It returns true whenever the process has
// something to do: lock a victim's queue (a probe found work), run its
// own queue (work arrived during the spin), or leave the cycle (the
// machine is quiescent).
type idler struct {
	a         *App
	e         *cpu.Env
	pid       int
	stealFrom int // the victim probed last; carries over from poll to poll
	probe     int // the round's current probe; 3 is the quiescence check
	at        idlePhase
	step      func() bool // poll, bound once per process
}

func (w *idler) poll() bool {
	a, e := w.a, w.e
	switch w.at {
	case idleProbed:
		if a.hasWork(w.stealFrom) {
			return true
		}
		w.probe++
	case idleCounted:
		if a.pendingTotal == 0 {
			return true
		}
		e.Read(a.qRecAddr[w.pid][0])
		e.SpinWait(6)
		w.at = idleSpun
		return false
	case idleSpun:
		if a.hasWork(w.pid) {
			return true
		}
		w.probe = 0
	}
	if w.probe < 3 {
		w.stealFrom = (w.stealFrom + 1) % a.nprocs
		if w.stealFrom == w.pid {
			w.stealFrom = (w.stealFrom + 1) % a.nprocs
		}
		e.Read(a.qRecAddr[w.stealFrom][0]) // poll the victim's descriptor
		e.Compute(4)
		w.at = idleProbed
	} else {
		e.Read(a.pendingLineAddr(0))
		e.Compute(4)
		w.at = idleCounted
	}
	return false
}

// hasWork reports whether any of owner's step queues holds a task.
func (a *App) hasWork(owner int) bool {
	for _, q := range a.queues[owner] {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// runBatch pops up to max tasks from owner's lowest non-empty step queue
// (the process's own, or a victim's) and evaluates them, reporting
// whether it found any.
func (a *App) runBatch(e *cpu.Env, pid, cyc, owner, max int) bool {
	for step := 0; step < a.maxSteps; step++ {
		if len(a.queues[owner][step]) == 0 {
			continue
		}
		batch := a.popBatch(e, owner, step, max)
		if len(batch) == 0 {
			continue
		}
		if a.p.Prefetch {
			a.prefetchBatch(e, pid, batch)
		}
		for _, t := range batch {
			a.evaluate(e, pid, cyc, step, int(t.gate))
		}
		return true
	}
	return false
}

// popBatch takes up to max tasks from one of owner's step queues (the
// caller may be stealing from another process's queue). Lock yields to
// the simulator, so the queue must be re-examined after the lock is
// held: peers push to this queue while we wait, and a pre-lock
// snapshot would drop their entries.
func (a *App) popBatch(e *cpu.Env, owner, step, max int) []task {
	if len(a.queues[owner][step]) == 0 {
		// Empty-check without the lock (test-and-test&set style).
		return nil
	}
	e.Lock(a.qlocks[owner])
	e.Read(a.qRecAddr[owner][step])
	q := a.queues[owner][step] // fresh view, now under the lock
	n := min(max, len(q))
	batch := append([]task(nil), q[:n]...)
	a.queues[owner][step] = q[n:]
	for i := 0; i < n; i++ {
		e.Read(a.qEntAddr[owner] + mem.Addr((int(batch[i].gate)%queueCap)*4))
		a.queuedFor[batch[i].gate] = -1
	}
	// A region: no native code runs between these operations, and Unlock
	// waits for the queued ones.
	e.Queue()
	e.Write(a.qRecAddr[owner][step])
	e.Compute(8)
	e.Unlock(a.qlocks[owner])
	e.Wait()
	return batch
}

// prefetchBatch issues the paper's prefetches for freshly popped elements:
// the element record grouped by likely-modified vs read-only fields
// (read-exclusive and read-shared respectively), the first level of the
// fanout list, and the input elements' output-value fields.
func (a *App) prefetchBatch(e *cpu.Env, pid int, batch []task) {
	for _, t := range batch {
		g := int(t.gate)
		if int(a.owner[g]) != pid {
			// Stolen work: the inserted prefetches cover the common
			// local case only (the paper reaches 56% coverage).
			continue
		}
		e.PFCompute(2)
		base := a.elemAddr[g]
		// Fields grouped by likely-modified vs read-only (the paper's
		// record reorganization): timing/state lines read-exclusive,
		// read-mostly lines read-shared.
		e.PrefetchExcl(base + mem.LineSize) // timing fields (written)
		e.Prefetch(base)                    // type/state head
		e.Prefetch(base + 2*mem.LineSize)   // input pointers
		e.Prefetch(a.fanAddr[g])            // fanout list head
		gt := &a.c.Gates[g]
		e.Prefetch(a.elemAddr[gt.In[0]] + 3*mem.LineSize)
		if gt.In[1] >= 0 {
			e.Prefetch(a.elemAddr[gt.In[1]] + 3*mem.LineSize)
		}
	}
}

// evaluate computes one gate and schedules fanout activations for changed
// outputs. Scheduling is conservative (Chandy–Misra style): a gate is
// activated for the timestep equal to its combinational rank, when all of
// its inputs are final, so each element evaluates at most once per clock
// cycle.
func (a *App) evaluate(e *cpu.Env, pid, cyc, step, g int) {
	a.evals++
	gt := &a.c.Gates[g]
	base := a.elemAddr[g]

	// Read the element record: type, state, input pointers, input
	// value/time pairs, output, fanout pointer, scheduling fields — with
	// the address computation and branching between field accesses.
	// A region (cpu.Env.Queue): its native code only reads the immutable
	// netlist and computes addresses. It ends before the input's value is
	// read, because other processes write gate values.
	e.Queue()
	for i, off := range []int{0, 4, 8, 16, 24, 32, 48, 52, 64, 80, 96, 112, 116, 124} {
		e.Read(base + mem.Addr(off))
		if i%2 == 1 {
			e.Compute(2)
		}
	}
	// Read the input elements: their output value/time and their net
	// record (a second line of the producer element).
	e.Read(a.elemAddr[gt.In[0]] + 3*mem.LineSize)
	e.Read(a.elemAddr[gt.In[0]] + 3*mem.LineSize + 4)
	e.Read(a.elemAddr[gt.In[0]] + 5*mem.LineSize)
	e.Wait()
	va := a.val[gt.In[0]]
	vb := false
	if gt.In[1] >= 0 {
		// A region: three reads with no native code between them.
		e.Queue()
		e.Read(a.elemAddr[gt.In[1]] + 3*mem.LineSize)
		e.Read(a.elemAddr[gt.In[1]] + 3*mem.LineSize + 4)
		e.Read(a.elemAddr[gt.In[1]] + 5*mem.LineSize)
		e.Wait()
		vb = a.val[gt.In[1]]
	}
	// The element state machine walks the record again (net pointers,
	// scheduling fields) — these re-reads hit the freshly filled lines.
	// A region: its only native code, Eval, works on the values already
	// read.
	e.Queue()
	for _, off := range []int{0, 16, 48, 64, 80, 96, 112, 124} {
		e.Read(base + mem.Addr(off))
	}
	e.Compute(80)

	out := Eval(gt.Kind, va, vb)
	// Update timing bookkeeping in the record.
	e.Write(base + 24)
	e.Write(base + 48)
	e.Write(base + 64)
	e.Write(base + 96)
	e.Write(base + 116)
	e.Wait()
	if out == a.val[g] {
		e.Compute(30)
		a.finishTask(e, step)
		return
	}
	a.val[g] = out
	// A region: the value was published above, before it opens, and no
	// native code runs between these operations.
	e.Queue()
	e.Write(base + 3*mem.LineSize) // output value field
	e.Write(base + 4)              // state
	e.Compute(40)
	e.Wait()

	// Schedule newly activated elements: fanouts grouped by owner so
	// each target queue is locked once.
	a.pushFanouts(e, cyc, g)
	a.finishTask(e, step)
}

// finishTask decrements the pending counter for the step (after any
// same-step pushes, keeping the quiescence check sound). The counters are
// approximated natively: a coherent global counter written on every task
// would serialize the whole simulation through one hot line, which real
// PTHOR avoids with distributed termination detection.
func (a *App) finishTask(e *cpu.Env, step int) {
	a.pendingStep[step]--
	a.pendingTotal--
	// Publish the count every few tasks: enough coherence traffic that
	// pollers see progress (their cached copy is invalidated), without
	// serializing every task through one hot line.
	if a.pendingTotal%4 == 0 {
		e.Write(a.pendingLineAddr(0))
	}
}

// pushFanouts schedules g's fanout gates, each at the timestep of its own
// combinational rank (at which point all of its inputs are final).
func (a *App) pushFanouts(e *cpu.Env, cyc, g int) {
	gt := &a.c.Gates[g]
	if len(gt.Fanout) == 0 {
		return
	}
	// A region: its native code reads only the immutable netlist, and
	// Lock and Unlock wait for the queued operations themselves. It
	// closes before the pushes read shared queue state.
	e.Queue()
	// Read the fanout list (two int32 entries per line half).
	for i := range gt.Fanout {
		if i%2 == 0 {
			e.Read(a.fanAddr[g] + mem.Addr(i*8))
		}
	}
	// Deliver the input event into each target element record, under the
	// element's lock (the Chandy–Misra message carries the new value and
	// its time). Delivery completes before any queue lock is taken, so
	// element and queue locks are never nested.
	for _, tgt := range gt.Fanout {
		if a.c.Gates[tgt].Kind == FF {
			continue
		}
		e.Lock(a.elemLocks[tgt])
		e.Read(a.elemAddr[tgt] + 16) // input slot pointers
		e.Write(a.elemAddr[tgt] + 24)
		e.Write(a.elemAddr[tgt] + 32)
		e.Compute(6)
		e.Unlock(a.elemLocks[tgt])
	}
	e.Wait()
	// Group by owning process so each target queue is locked once.
	var done [8]int32
	nd := 0
	for _, tgt := range gt.Fanout {
		if a.c.Gates[tgt].Kind == FF {
			continue // flip-flops sample at the clock edge, no activation
		}
		own := a.owner[tgt]
		seen := false
		for i := 0; i < nd; i++ {
			if done[i] == own {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		if nd < len(done) {
			done[nd] = own
			nd++
		}
		a.pushToOwner(e, int(own), cyc, gt.Fanout)
	}
}

// pushToOwner locks one target queue set and enqueues all of the fanout
// gates owned by that process, each at its own rank's timestep.
func (a *App) pushToOwner(e *cpu.Env, own, cyc int, fanout []int32) {
	first := true
	// Regions, each from one target's Write, Write and Compute to the
	// next target's Read. The queuedFor checks between them run before
	// the queued operations complete, which is exact: the targets are
	// own's gates, and a process's queuedFor entries and queue slices
	// change only under that process's queue lock, which is held by then
	// (the checks before the Lock run with nothing queued). Pollers read
	// the queue slices and the pending counts without the lock, so a Wait
	// comes before each update of them.
	for _, tgt := range fanout {
		if int(a.owner[tgt]) != own || a.c.Gates[tgt].Kind == FF {
			continue
		}
		step := a.stepOf(a.c.Gates[tgt].Level)
		gs := globalStep(cyc, step)
		if a.queuedFor[tgt] == gs {
			continue // already queued for this cycle
		}
		if first {
			e.Lock(a.qlocks[own])
			first = false
		}
		e.Read(a.qRecAddr[own][step])
		e.Wait()
		a.queuedFor[tgt] = gs
		a.queues[own][step] = append(a.queues[own][step], task{gate: tgt})
		a.pendingStep[step]++
		a.pendingTotal++
		e.Queue()
		e.Write(a.qEntAddr[own] + mem.Addr((int(tgt)%queueCap)*4))
		e.Write(a.qRecAddr[own][step])
		e.Compute(6)
	}
	if !first {
		e.Unlock(a.qlocks[own])
	}
	e.Wait()
}

// edgePhase latches this process's flip-flops and activates the fanouts of
// those whose outputs changed.
func (a *App) edgePhase(e *cpu.Env, pid, cyc int) {
	// Two-phase latch: sample all D inputs first (into next), then
	// commit, so FF-to-FF dependencies read pre-edge values. The sample
	// loop runs over owned FFs only; the commit is a barrier away.
	next := make([]bool, len(a.ownedFFs[pid]))
	for i, f := range a.ownedFFs[pid] {
		gt := &a.c.Gates[f]
		e.Read(a.elemAddr[f])
		if gt.Toggle {
			next[i] = !a.val[f]
		} else {
			e.Read(a.elemAddr[gt.In[0]] + 3*mem.LineSize)
			next[i] = a.val[gt.In[0]]
		}
		e.Compute(10)
	}
	e.Barrier(a.bar)
	for i, f := range a.ownedFFs[pid] {
		if next[i] == a.val[f] {
			continue
		}
		a.val[f] = next[i]
		e.Write(a.elemAddr[f] + 3*mem.LineSize)
		e.Compute(8)
		a.pushFanouts(e, cyc+1, int(f))
	}
}

var _ machine.App = (*App)(nil)
