// Package msync implements the synchronization primitives the Argonne
// macro package provided to the benchmark applications: spin locks and
// barriers, with test-and-test&set timing on top of the coherence
// protocol.
//
// A waiter caches the lock (or barrier flag) line and spins locally
// without generating traffic. The releasing write acquires ownership of
// the line, which invalidates every spinner's copy through the real
// protocol; the handoff then costs the new holder a fresh ownership
// transaction while the remaining spinners refetch a shared copy and
// resume spinning. Lock and barrier wait time is accounted by the
// processor as synchronization stall.
package msync

import (
	"fmt"

	"latsim/internal/mem"
	"latsim/internal/memsys"
	"latsim/internal/sim"
)

// waiter is a blocked acquirer: the node it runs on and its wakeup.
type waiter struct {
	n       *memsys.Node
	granted sim.Actor
}

// Lock is a simulated spin lock.
type Lock struct {
	addr    mem.Addr
	held    bool
	holder  int
	waiters []waiter
}

// NewLock creates a lock whose state lives at addr (one allocated line).
func NewLock(addr mem.Addr) *Lock { return &Lock{addr: addr, holder: -1} }

// Addr returns the lock's line address (the unlock store target).
func (l *Lock) Addr() mem.Addr { return l.addr }

// Held reports whether the lock is currently held.
func (l *Lock) Held() bool { return l.held }

// SetHeld marks the lock as held during application setup (before the
// simulation starts), with no owning node. Producer/consumer patterns use
// this: the producer releases the pre-held lock when the guarded data is
// ready. Must not be called once the simulation is running.
func (l *Lock) SetHeld() {
	if l.held {
		panic("msync: SetHeld on a held lock")
	}
	l.held = true
	l.holder = -1
}

// Holder returns the node holding the lock, or -1.
func (l *Lock) Holder() int {
	if !l.held {
		return -1
	}
	return l.holder
}

// Acquire attempts to take the lock from node n; granted runs when the
// lock is owned by n. A free lock costs a read-exclusive transaction on
// the lock line (the test&set); a held lock fetches a shared copy once and
// then spins locally until handoff.
func (l *Lock) Acquire(n *memsys.Node, granted sim.Actor) {
	// Memory accesses issued here are synchronization protocol traffic;
	// the bracket makes their sampled spans trace as sync transactions.
	n.BeginSyncSpans()
	defer n.EndSyncSpans()
	if !l.held {
		l.held = true
		l.holder = n.ID()
		n.AcquireOwnership(l.addr, granted)
		return
	}
	refetch(n, l.addr)
	l.waiters = append(l.waiters, waiter{n: n, granted: granted})
}

// ReleaseRetired is called when the unlock store has retired from the
// releaser's write buffer (ownership acquired, spinners invalidated). It
// hands the lock to the oldest waiter, whose wakeup costs a fresh
// ownership transaction; other waiters refetch and keep spinning.
func (l *Lock) ReleaseRetired() {
	if !l.held {
		panic("msync: release of a lock that is not held")
	}
	if len(l.waiters) == 0 {
		l.held = false
		l.holder = -1
		return
	}
	// Dequeue in place. The loop below then walks the queue itself: no
	// acquirer can join it meanwhile, because neither the ownership
	// request nor a refetch runs a callback synchronously.
	next := l.waiters[0]
	last := copy(l.waiters, l.waiters[1:])
	l.waiters[last] = waiter{}
	l.waiters = l.waiters[:last]
	l.holder = next.n.ID()
	next.n.BeginSyncSpans()
	next.n.AcquireOwnership(l.addr, next.granted)
	next.n.EndSyncSpans()
	for _, o := range l.waiters {
		o.n.BeginSyncSpans()
		refetch(o.n, l.addr)
		o.n.EndSyncSpans()
	}
}

// Waiters returns the number of queued acquirers (for tests/diagnostics).
func (l *Lock) Waiters() int { return len(l.waiters) }

// Barrier is a simulated global barrier. Arrival is an atomic increment of
// a counter line (a serializing hot spot through its home node); waiting
// processes spin on a flag line that the last arrival writes. The barrier
// is the sim.Actor of that flag write.
type Barrier struct {
	counterAddr mem.Addr
	flagAddr    mem.Addr
	total       int
	arrived     int
	// waiters are the arrivals of the current episode in arrival order,
	// the last arrival included once it has come.
	waiters []waiter
}

// NewBarrier creates a barrier for total participants. counterAddr and
// flagAddr must be two distinct allocated lines.
func NewBarrier(counterAddr, flagAddr mem.Addr, total int) *Barrier {
	if total < 1 {
		panic(fmt.Sprintf("msync: barrier with %d participants", total))
	}
	if mem.LineOf(counterAddr) == mem.LineOf(flagAddr) {
		panic("msync: barrier counter and flag must be on distinct lines")
	}
	return &Barrier{counterAddr: counterAddr, flagAddr: flagAddr, total: total}
}

// CounterAddr returns the barrier's arrival-counter line address (the
// target of the processor's release-marked arrival store).
func (b *Barrier) CounterAddr() mem.Addr { return b.counterAddr }

// Total returns the number of participants.
func (b *Barrier) Total() int { return b.total }

// ArriveRetired records an arrival whose counter increment has already
// retired (the processor issued it as a release-marked store through the
// write buffer). released runs when all participants have arrived.
func (b *Barrier) ArriveRetired(n *memsys.Node, released sim.Actor) {
	n.BeginSyncSpans()
	defer n.EndSyncSpans()
	b.arrived++
	b.waiters = append(b.waiters, waiter{n: n, granted: released})
	if b.arrived < b.total {
		refetch(n, b.flagAddr)
		return
	}
	// Last arrival: write the flag, invalidating every spinner (Act
	// continues once the write completes).
	b.arrived = 0
	n.AcquireOwnership(b.flagAddr, b)
}

// Act implements sim.Actor: the last arrival's flag write completed, so
// each spinner refetches the flag and proceeds, and then the last arrival
// does. No participant can arrive again before this runs, so the waiter
// storage is reused.
func (b *Barrier) Act() {
	ws := b.waiters
	last := ws[len(ws)-1]
	for _, w := range ws[:len(ws)-1] {
		w.n.BeginSyncSpans()
		refetchThen(w.n, b.flagAddr, w.granted)
		w.n.EndSyncSpans()
	}
	clear(ws)
	b.waiters = ws[:0]
	last.granted.Act()
}

// Arrived returns the number of processes currently waiting at the
// barrier.
func (b *Barrier) Arrived() int { return b.arrived }

// refetch issues a shared read of a spin line if it is not already cached
// (spin reads hit the primary cache and cost nothing extra).
func refetch(n *memsys.Node, a mem.Addr) {
	if n.ClassifyRead(a) != memsys.ClassPrimary {
		n.Read(a, nil)
	}
}

// refetchThen reads the spin line (if needed) and then runs done.
func refetchThen(n *memsys.Node, a mem.Addr, done sim.Actor) {
	if n.ClassifyRead(a) == memsys.ClassPrimary {
		done.Act()
		return
	}
	n.Read(a, done)
}
