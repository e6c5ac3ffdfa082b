// Package check is the runtime coherence invariant checker: the dynamic
// half of the correctness tooling (internal/analysis is the static
// half). When enabled with -check, the memory system calls the hooks
// below after every directory transaction, cache fill, invalidation and
// write-buffer transition, and the checker asserts the protocol
// contracts the DASH-style directory design hangs on:
//
//  1. Single dirty owner: at most one cache holds a line Dirty,
//     machine-wide, at every observed instant.
//  2. Sharer-set / cache-state agreement: a cached copy implies the
//     home directory accounts for it — the node is in the sharer set
//     (DirShared), is the recorded owner (DirDirty), or an invalidation
//     is in flight to it. The sharer set is a superset of the true
//     sharers: stale members without a copy are legal (silent eviction,
//     and — for the imprecise limited-pointer/coarse-vector directory
//     organizations — representation slack); copies without accounting
//     are not. The superset rule is what makes one agreement invariant
//     hold across every dirset.Org.
//  3. MSHR / victim-buffer exclusivity: a node never has both an
//     outstanding miss and a pending writeback for the same line.
//  4. Write-buffer FIFO: under the ordered configurations (PC, or SC
//     with a single context) writes retire strictly in enqueue order.
//     SC with multiple contexts shares one buffer between contexts
//     that each stall on their own write, so only per-context order is
//     architectural and the node-level assertion relaxes.
//  5. Clock monotonicity: the kernel's now never moves backwards
//     between observed events.
//
// Like the obs.Recorder, the checker obeys the zero-perturbation
// contract (DESIGN.md): it is reached through a plain pointer whose
// exported methods are nil-guarded (enforced by the nilsafe analyzer),
// it schedules no kernel events, and it only reads simulator state
// through the Inspector, so enabling it cannot change simulated timing
// or output.
//
// Checks on a line are suspended while its directory entry is busy (an
// ownership transfer is mid-flight; DASH queues requests behind the
// same condition) and resume at the next observed event on the line.
// The first violation is recorded with the line address, node and cycle;
// subsequent violations only count.
package check

import (
	"fmt"

	"latsim/internal/dirset"
	"latsim/internal/mem"
	"latsim/internal/sim"
)

// DirState mirrors the memory system's directory states. The memsys
// adapter converts explicitly, so the two enums cannot drift silently.
type DirState int

const (
	DirUncached DirState = iota
	DirShared
	DirDirty
)

// CacheState mirrors the secondary cache's line states.
type CacheState int

const (
	CacheInvalid CacheState = iota
	CacheShared
	CacheDirty
)

// Inspector is the checker's read-only window into the memory system.
// It is implemented by an adapter in internal/memsys; keeping the
// interface here (with primitive-ish types only) avoids an import
// cycle and keeps the checker independently testable with a fake.
type Inspector interface {
	// NumNodes returns the machine size.
	NumNodes() int
	// HomeOf returns the home node of a line.
	HomeOf(line mem.Line) int
	// Dir returns the directory entry for a line at its home (a line
	// with no entry yet is DirUncached with the empty dirset.View). The
	// sharer view is the directory's own representation — a superset of
	// the true sharers for imprecise organizations — so the checker
	// works unmodified at any machine size and any dirset.Org.
	Dir(home int, line mem.Line) (state DirState, sharers dirset.View, owner int, busy bool)
	// CacheState returns node's secondary-cache state for a line.
	CacheState(node int, line mem.Line) CacheState
	// HasMSHR reports whether node has an outstanding miss for line.
	HasMSHR(node int, line mem.Line) bool
	// HasVictim reports whether line sits in node's writeback (victim)
	// buffer awaiting the home's acknowledgement.
	HasVictim(node int, line mem.Line) bool
}

// Checker asserts the coherence invariants. All exported methods are
// safe to call on a nil receiver (a nil *Checker is the disabled
// state, like a nil *obs.Recorder).
type Checker struct {
	k       *sim.Kernel
	insp    Inspector
	ordered bool // write buffer must retire in FIFO order (PC, 1-ctx SC)

	lastNow    sim.Time
	checks     uint64 // per-line invariant evaluations performed
	violations uint64
	firstErr   error

	// invals counts invalidations in flight per (node, line): sent by
	// the home directory but not yet applied at the sharer. While one
	// is in flight, that node may legally hold a copy the directory no
	// longer accounts for.
	invals map[invalKey]int

	// wbLen tracks each node's shadow write-buffer depth; retire
	// positions are validated against it (and must be 0 when ordered).
	wbLen []int
}

type invalKey struct {
	node int
	line mem.Line
}

// New builds a checker over the inspector's machine. ordered selects
// the strict write-buffer FIFO assertion (processor consistency, or
// sequential consistency with a single context per processor); other
// configurations legally retire out of order.
func New(k *sim.Kernel, insp Inspector, ordered bool) *Checker {
	return &Checker{
		k:       k,
		insp:    insp,
		ordered: ordered,
		invals:  make(map[invalKey]int),
		wbLen:   make([]int, insp.NumNodes()),
	}
}

// violate records a violation; the first one keeps its details.
func (c *Checker) violate(line mem.Line, node int, format string, args ...any) {
	c.violations++
	if c.firstErr == nil {
		//hookpure:alloc violation path only; at most one detailed error per run
		detail := fmt.Sprintf(format, args...)
		//hookpure:alloc violation path only; a failed invariant ends the experiment
		c.firstErr = fmt.Errorf("check: %s (line %#x, node %d, cycle %d)",
			detail, uint64(line), node, uint64(c.k.Now()))
	}
}

// tick asserts clock monotonicity; every hook passes through it.
func (c *Checker) tick() {
	now := c.k.Now()
	if now < c.lastNow {
		c.violations++
		if c.firstErr == nil {
			//hookpure:alloc violation path only; a non-monotonic clock aborts the run
			c.firstErr = fmt.Errorf("check: kernel clock moved backwards: %d after %d",
				uint64(now), uint64(c.lastNow))
		}
		return
	}
	c.lastNow = now
}

// DirEvent is called at the home node after every directory transaction
// on a line (read, write, writeback, unbusy) has updated the entry.
func (c *Checker) DirEvent(home int, line mem.Line) {
	if c == nil {
		return
	}
	c.tick()
	c.checkLine(line)
}

// FillApplied is called at a requesting node right after a fill
// installed (and possibly immediately invalidated) a line. Only that
// node's state changed, so only its agreement is re-evaluated (the
// machine-wide single-dirty-owner scan runs on directory events and in
// the quiescent sweep) — keeping the per-hook cost O(1) instead of
// O(nodes) so 1024-node machines stay checkable.
func (c *Checker) FillApplied(node int, line mem.Line) {
	if c == nil {
		return
	}
	c.tick()
	c.checkNode(node, line)
}

// InvalSent is called at the home for each invalidation it fans out to
// a sharer. Until InvalApplied, that sharer's copy is excused from
// bitmap agreement.
func (c *Checker) InvalSent(node int, line mem.Line) {
	if c == nil {
		return
	}
	c.tick()
	c.invals[invalKey{node, line}]++
}

// InvalApplied is called at the sharer when the invalidation takes
// effect (including the stale case where the copy was re-acquired and
// survives).
func (c *Checker) InvalApplied(node int, line mem.Line) {
	if c == nil {
		return
	}
	c.tick()
	k := invalKey{node, line}
	if c.invals[k] == 0 {
		c.violate(line, node, "invalidation applied that was never sent")
		return
	}
	if c.invals[k]--; c.invals[k] == 0 {
		delete(c.invals, k)
	}
	c.checkNode(node, line)
}

// WBEnqueue is called when a write occupies a new write-buffer entry
// (coalesced writes do not).
func (c *Checker) WBEnqueue(node int) {
	if c == nil {
		return
	}
	c.tick()
	c.wbLen[node]++
}

// WBRetire is called when the write-buffer entry at position pos
// (0 = oldest) retires. Under SC/PC retirement must be in FIFO order.
func (c *Checker) WBRetire(node int, pos int) {
	if c == nil {
		return
	}
	c.tick()
	if pos < 0 || pos >= c.wbLen[node] {
		c.violate(0, node, "write buffer retired position %d of %d", pos, c.wbLen[node])
		return
	}
	if c.ordered && pos != 0 {
		c.violate(0, node, "write buffer retired position %d before older writes under an ordered model", pos)
	}
	c.wbLen[node]--
}

// checkLine evaluates the machine-wide per-line invariants after a
// directory state change. The scan is O(nodes) but cheap per node:
// invalid lines (the overwhelming majority at scale) fall through with
// one cache-state peek, and the in-flight-invalidation and MSHR/victim
// lookups only run for nodes that actually hold a copy or own the
// line. The per-node MSHR/victim exclusivity invariant lives in
// checkNode (the node whose buffers changed) and the quiescent
// memsys.CheckInvariants sweep, not here.
func (c *Checker) checkLine(line mem.Line) {
	c.checks++
	home := c.insp.HomeOf(line)
	state, sharers, owner, busy := c.insp.Dir(home, line)

	dirty := 0
	for node := 0; node < c.insp.NumNodes(); node++ {
		cs := c.insp.CacheState(node, line)
		if cs == CacheDirty {
			dirty++
		}
		if busy {
			// Ownership transfer mid-flight: directory/cache agreement
			// is re-established by the transfer's completion.
			continue
		}
		if cs == CacheInvalid && !(state == DirDirty && node == owner) {
			// No copy and nothing owed: agreement holds trivially.
			continue
		}
		c.checkAgreement(node, line, cs, state, sharers, owner)
	}
	if dirty > 1 {
		c.violate(line, owner, "%d dirty copies; at most one is allowed", dirty)
	}
}

// checkNode evaluates the single-node invariants after node's own state
// for line changed (a fill installed, an invalidation applied): its
// directory agreement and its MSHR/victim-buffer exclusivity.
func (c *Checker) checkNode(node int, line mem.Line) {
	c.checks++
	if c.insp.HasMSHR(node, line) && c.insp.HasVictim(node, line) {
		c.violate(line, node, "line has both an outstanding miss and a pending writeback")
	}
	home := c.insp.HomeOf(line)
	state, sharers, owner, busy := c.insp.Dir(home, line)
	if busy {
		return
	}
	c.checkAgreement(node, line, c.insp.CacheState(node, line), state, sharers, owner)
}

// checkAgreement asserts one node's directory/cache agreement given an
// already-fetched (non-busy) directory entry.
func (c *Checker) checkAgreement(node int, line mem.Line, cs CacheState, state DirState, sharers dirset.View, owner int) {
	switch state {
	case DirUncached:
		if cs != CacheInvalid && !c.invalInFlight(node, line) {
			c.violate(line, node, "cached copy of a line the directory says is uncached")
		}
	case DirShared:
		if cs == CacheDirty {
			c.violate(line, node, "dirty copy of a line the directory says is shared")
		}
		if cs == CacheShared && !sharers.Contains(node) && !c.invalInFlight(node, line) {
			c.violate(line, node, "shared copy not in the directory's sharer set")
		}
	case DirDirty:
		if node == owner {
			if cs != CacheDirty && !c.insp.HasMSHR(node, line) && !c.insp.HasVictim(node, line) {
				c.violate(line, node, "recorded owner holds no dirty copy and has no transaction in flight")
			}
		} else if cs != CacheInvalid && !c.invalInFlight(node, line) {
			c.violate(line, node, "non-owner copy of a line the directory says is dirty")
		}
	}
}

func (c *Checker) invalInFlight(node int, line mem.Line) bool {
	return c.invals[invalKey{node, line}] > 0
}

// Checks returns the number of per-line invariant evaluations run.
func (c *Checker) Checks() uint64 {
	if c == nil {
		return 0
	}
	return c.checks
}

// Violations returns the total violation count.
func (c *Checker) Violations() uint64 {
	if c == nil {
		return 0
	}
	return c.violations
}

// Err returns the first recorded violation, nil if none.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	return c.firstErr
}
