//go:build go1.23

// The go1.23 constraint raises this file's language version so it may use
// iter.Pull while go.mod stays at go 1.22.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Coroutine couples an application process (native Go code) to the
// simulation kernel, Tango-style: exactly one of the kernel and the process
// runs at any instant, so simulation remains deterministic.
//
// The kernel side calls Resume to hand control to the process; the process
// runs native code until it needs the simulator (a memory reference, a
// synchronization operation, consuming compute cycles) and calls Yield,
// handing control back. Payload (which operation is requested) travels in
// structures owned by the caller, not through the coroutine itself.
//
// The handoff is the runtime's coroutine switch (iter.Pull): no channels
// and no scheduler round trip. The process runs on its own goroutine,
// which exists until the body returns or Stop unwinds it; every exit path
// of a run must therefore end in either.
type Coroutine struct {
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	finished bool
}

// stopped is the panic value Yield raises once Stop has torn the coroutine
// down; the body wrapper recovers it, so the body unwinds and its deferred
// functions run.
type stopped struct{}

// NewCoroutine creates a coroutine for body. The body does not start
// running until the first Resume.
func NewCoroutine(body func()) *Coroutine {
	c := &Coroutine{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			c.finished = true
			// iter.Pull re-raises a body panic on the kernel side, where
			// the process's frames are gone: keep its stack in the value.
			if r := recover(); r != nil && r != (stopped{}) {
				panic(fmt.Sprintf("sim: process panicked: %v\n\nprocess stack:\n%s", r, debug.Stack()))
			}
		}()
		body()
	})
	return c
}

// Resume transfers control to the process and blocks until it yields or
// finishes. It reports whether the process is still alive (i.e. yielded
// rather than returned). A panic inside the process body is re-raised
// here, on the kernel's goroutine, carrying the original value and the
// process's stack.
func (c *Coroutine) Resume() (alive bool) {
	if c.finished {
		panic("sim: Resume on finished coroutine")
	}
	_, alive = c.next()
	return alive
}

// Yield transfers control back to the kernel and blocks until the next
// Resume. Must only be called from inside the coroutine body.
func (c *Coroutine) Yield() {
	if !c.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Stop tears the coroutine down: a body suspended in Yield unwinds, running
// its deferred functions, and a body never resumed never runs. Stop on a
// finished coroutine is a no-op; afterwards Finished reports true.
func (c *Coroutine) Stop() {
	c.stop()
	c.finished = true
}

// Finished reports whether the body has returned or been stopped.
func (c *Coroutine) Finished() bool { return c.finished }
