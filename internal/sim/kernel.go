// Package sim provides the deterministic discrete-event simulation kernel
// that underlies the architecture simulator. All timing in the machine is
// expressed in processor clock cycles (pclocks, 1 pclock = 30 ns on the
// 33 MHz DASH prototype the paper models).
//
// The kernel is strictly single-threaded: events fire in (time, sequence)
// order, so two events scheduled for the same cycle fire in the order they
// were scheduled. This gives bit-identical results across runs, which the
// reproduction relies on.
//
// The event queue is a calendar of 64 one-cycle slots covering the next 64
// cycles. Each slot is a FIFO of the events due at its cycle, linked through
// one node arena shared by all slots, and one word records which slots are
// occupied, so scheduling and firing a near-future event is O(1). Events 64
// or more cycles ahead wait in a value-typed 4-ary min-heap and move into
// their slot as soon as the clock comes within 64 cycles of them.
//
// Every scheduled completion, in the kernel, Resource and the model
// packages above them, is an Actor. Model objects are Actors themselves,
// so the simulator's paths schedule events and park waiters without
// allocating at all; only the mesh-network ablation builds closures,
// one per hop, and schedules them as Funcs.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point in simulated time, in processor clock cycles.
type Time uint64

// Actor is the completion type: a scheduled event, a resource grant or a
// memory-system callback stores one interface word pair and calls Act when
// it fires. Model objects with multi-step lifecycles (a context, a miss
// record, a network message) implement Act as a small state machine and
// reschedule themselves through their stages. A nil Actor means no
// completion where an API accepts one.
type Actor interface {
	Act()
}

// Func adapts a closure to Actor. A func value is one pointer, so the
// conversion allocates nothing beyond the closure itself.
type Func func()

// Act implements Actor.
func (f Func) Act() { f() }

// event is a scheduled callback in the overflow heap, stored by value.
type event struct {
	at  Time
	seq uint64 // tie-breaker: schedule order
	a   Actor
}

// before reports whether e fires before o in (time, sequence) order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// slots is the calendar's width in cycles: nearly every event the
// simulator schedules is due fewer than 64 cycles ahead, and one uint64
// then records which slots are occupied.
const slots = 64

// node is a calendar entry: a completion and the arena index of the next
// node in its slot or in the free list; nilNode ends both lists. Its slot
// gives its time and its place in the FIFO its sequence.
type node struct {
	a    Actor
	next int32
}

const nilNode = -1

// Kernel is the discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now Time
	seq uint64

	// The calendar holds every pending event due before now+slots, the
	// event due at cycle t in slot t%slots. The window never spans more
	// cycles than there are slots, so each slot holds one cycle's events.
	occupied   uint64       // bit s is set while slot s is non-empty
	head, tail [slots]int32 // each occupied slot's FIFO, as indexes into nodes
	nodes      []node       // arena shared by all slots
	free       int32        // free-list head in nodes

	// far is the overflow tier: a value-typed 4-ary min-heap, ordered by
	// (at, seq), of the events due at now+slots or later. An event enters
	// far only while its cycle is outside the window and is moved into
	// its slot the moment the clock brings that cycle inside, before any
	// callback can schedule there directly. So every slot receives its
	// events in sequence order, and its FIFO is (at, seq) order.
	far []event

	// Counters, surfaced through machine results and runner metrics.
	events    uint64 // events fired
	scheduled uint64 // events pushed into the queue
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{free: nilNode} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the total number of events fired so far.
func (k *Kernel) Events() uint64 { return k.events }

// Stats is a snapshot of the kernel's scheduling counters.
type Stats struct {
	Fired     uint64 // events executed
	Scheduled uint64 // events pushed into the queue
	// Advances is always 0: the clock moves only by firing an event or
	// through RunUntil. The field keeps the shape of recorded results
	// and of the readers that still report it.
	Advances uint64
}

// KernelStats returns the scheduling counters.
func (k *Kernel) KernelStats() Stats {
	return Stats{Fired: k.events, Scheduled: k.scheduled}
}

// AtActor schedules a.Act() at absolute time t. Scheduling in the past
// (t < Now) panics: it always indicates a modeling bug.
func (k *Kernel) AtActor(t Time, a Actor) {
	if t < k.now {
		//hookpure:alloc failure path only; scheduling into the past aborts the run
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	k.seq++
	k.scheduled++
	if t-k.now < slots {
		k.pushNear(t, a)
	} else {
		k.pushFar(event{at: t, seq: k.seq, a: a})
	}
}

// AfterActor schedules a.Act() delay cycles from now.
func (k *Kernel) AfterActor(delay Time, a Actor) { k.AtActor(k.now+delay, a) }

// NextAt returns the timestamp of the earliest pending event, if any.
// Overflow events are all due after every calendar event.
func (k *Kernel) NextAt() (Time, bool) {
	if k.occupied != 0 {
		return k.now + k.nearOffset(), true
	}
	if len(k.far) > 0 {
		return k.far[0].at, true
	}
	return 0, false
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports whether an event was fired.
func (k *Kernel) Step() bool {
	var at Time
	var a Actor
	switch {
	case k.occupied != 0:
		at, a = k.popNear()
	case len(k.far) > 0:
		e := k.popFar()
		at, a = e.at, e.a
	default:
		return false
	}
	if at != k.now {
		k.setNow(at)
	}
	k.events++
	a.Act()
	return true
}

// Run fires events until the queue is empty or stop returns true. stop may
// be nil, meaning run to exhaustion. It returns the number of events fired.
func (k *Kernel) Run(stop func() bool) uint64 {
	var n uint64
	for (stop == nil || !stop()) && k.Step() {
		n++
	}
	return n
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline if it is still behind (in particular, on an empty
// queue the clock jumps straight to the deadline).
func (k *Kernel) RunUntil(deadline Time) {
	for next, ok := k.NextAt(); ok && next <= deadline; next, ok = k.NextAt() {
		k.Step()
	}
	if k.now < deadline {
		k.setNow(deadline)
	}
}

// nearOffset returns how many cycles after now the earliest calendar event
// is due: rotating the occupancy word puts now's slot at bit 0. The
// calendar must not be empty.
func (k *Kernel) nearOffset() Time {
	return Time(bits.TrailingZeros64(bits.RotateLeft64(k.occupied, -int(k.now%slots))))
}

// pushNear appends a to the FIFO of the slot for cycle t, which must be
// before now+slots.
func (k *Kernel) pushNear(t Time, a Actor) {
	i := k.free
	if i == nilNode {
		i = int32(len(k.nodes))
		//hookpure:alloc amortized: the arena grows to the in-flight high-water mark, then recycles through the free list
		k.nodes = append(k.nodes, node{})
	} else {
		k.free = k.nodes[i].next
	}
	k.nodes[i].a = a
	k.nodes[i].next = nilNode
	s := t % slots
	if k.occupied&(1<<s) == 0 {
		k.occupied |= 1 << s
		k.head[s] = i
	} else {
		k.nodes[k.tail[s]].next = i
	}
	k.tail[s] = i
}

// popNear removes the earliest calendar event, the head of the first
// occupied slot at or after now's, returns its node to the free list and
// returns the event's time and completion.
func (k *Kernel) popNear() (Time, Actor) {
	at := k.now + k.nearOffset()
	s := at % slots
	i := k.head[s]
	a := k.nodes[i].a
	if next := k.nodes[i].next; next == nilNode {
		k.occupied &^= 1 << s
	} else {
		k.head[s] = next
	}
	k.nodes[i] = node{next: k.free} // release the completion to the GC
	k.free = i
	return at, a
}

// setNow moves the clock forward to t and then the overflow events now
// within the calendar's window into their slots, in (at, seq) order, before
// any callback can schedule into those slots directly. Every clock move
// goes through it.
func (k *Kernel) setNow(t Time) {
	k.now = t
	for len(k.far) > 0 && k.far[0].at-k.now < slots {
		e := k.popFar()
		k.pushNear(e.at, e.a)
	}
}

// 4-ary min-heap over the overflow slice. A wider node roughly halves the
// tree depth versus a binary heap, trading a few extra comparisons per
// level for fewer cache-missing levels.

func (k *Kernel) pushFar(e event) {
	//hookpure:alloc amortized: the overflow heap grows to the in-flight high-water mark, then stabilizes
	h := append(k.far, e)
	// Sift up: shift parents down until e's slot is found.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.far = h
}

func (k *Kernel) popFar() event {
	h := k.far
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback reference to the GC
	h = h[:n]
	k.far = h
	if n > 0 {
		// Sift down: move holes toward the leaves until last fits.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return min
}

// Pool is a deterministic LIFO free list for hot-path simulation records
// (miss records, write-buffer entries, network messages). It is not
// thread-safe; each kernel's model objects own their pools, matching the
// kernel's single-threaded discipline. Callers must reset an object's
// fields before or after Put — Get returns recycled objects as-is.
type Pool[T any] struct {
	free []*T
}

// Get returns a recycled object, or a new zero-valued one when the pool is
// empty.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	return new(T) //hookpure:alloc free-list miss only; steady state recycles via Put
}

// Put recycles an object for a later Get.
//
//hookpure:alloc the free list grows to the in-flight high-water mark, then stabilizes
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }
