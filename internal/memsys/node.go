package memsys

import (
	"fmt"
	"sort"

	"latsim/internal/check"
	"latsim/internal/config"
	"latsim/internal/dirset"
	"latsim/internal/mem"
	"latsim/internal/obs"
	"latsim/internal/obs/span"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// dirState is the directory state of a memory line at its home node.
type dirState uint8

const (
	// DirUncached: no cache holds the line; memory is up to date.
	DirUncached dirState = iota
	// DirShared: one or more caches hold read-only copies.
	DirShared
	// DirDirty: exactly one cache holds an exclusive, dirty copy.
	DirDirty
)

// dirEntry is the directory entry for one line. The sharer set is a
// value in the organization the home's layout picks (Config.DirOrg:
// exact full-map by default; limited-pointer and coarse-vector for
// scaled machines) and always holds a superset of the nodes with shared
// copies. The entry is kept to 24 bytes because the directory stores one
// for every line of each page that has reached its home, touched or not
// (see Node.dir). A slot that is not used has never been touched and
// reads as no entry.
type dirEntry struct {
	sharers dirset.Set // nodes with (potential) shared copies
	owner   int32      // owning node when state == DirDirty
	state   dirState
	used    bool // a request for the line has reached its home

	// busy serializes ownership-transfer transactions on the line: while
	// a forwarded request is in flight to the owner, later requests for
	// the line park on the home's parked list and re-enter the
	// controller when the owner's completion notice arrives (DASH's
	// request-pending behaviour).
	busy bool
}

// dirChunk holds the directory entries of one page's lines, indexed by
// the line's position in the page.
type dirChunk [mem.LinesPerPage]dirEntry

// parkedReq is a directory request that found its line's entry busy: the
// miss (mshr) or writeback (victimEntry), stopped at its directory stage
// so that re-acquiring the controller re-runs the directory action.
type parkedReq struct {
	line mem.Line
	req  sim.Actor
}

// mshrKind distinguishes what created an outstanding-miss register.
type mshrKind int

const (
	mshrRead mshrKind = iota
	mshrWrite
	mshrPrefetch
	mshrPrefetchExcl
)

// mshr tracks one outstanding transaction for a line (the lockup-free
// cache's miss-status holding register). At most one transaction per line
// per node is in flight; later demands merge as waiters and protocol
// messages that arrive early queue until the fill completes.
//
// The mshr is a sim.Actor: it carries its own transaction through the bus,
// network, directory and fill stages (see the stage machine in trans.go),
// so a miss schedules no closures on its critical path.
type mshr struct {
	n           *Node    // requesting node
	a           mem.Addr // requested address
	line        mem.Line
	kind        mshrKind
	excl        bool // completes with ownership (Dirty install)
	stage       mshrStage
	started     sim.Time
	waiters     []sim.Actor
	queuedMsgs  []sim.Actor // forwards (fwdMsg) that arrived before the fill
	invalidated bool        // an invalidation arrived while in flight

	// span traces the transaction when it was sampled (nil otherwise).
	// An adopted span belongs to the write-buffer entry that started the
	// transaction; the entry ends it at retirement, the mshr must not.
	span        *span.Span
	spanAdopted bool
}

// victimEntry is a dirty line evicted from the secondary cache whose
// writeback has not yet been acknowledged by the home node. The data is
// still available here, so forwarded requests can be serviced from it.
// It is a sim.Actor carrying its own writeback transaction to the home
// and back.
type victimEntry struct {
	n       *Node
	line    mem.Line
	stage   vbStage
	waiters []sim.Actor // local accesses (retryOp) waiting for the writeback to clear
	span    *span.Span
}

// vbStage is the writeback transaction's next step when its event fires.
type vbStage uint8

const (
	vbToHome vbStage = iota // node bus granted: send to the home
	vbAtHome                // delivered at the home: queue for the controller
	vbDir                   // memory/directory controller granted
	vbAcked                 // home's acknowledgement delivered back
)

// Act implements sim.Actor.
func (v *victimEntry) Act() {
	switch v.stage {
	case vbToHome:
		h := v.n.home(mem.AddrOf(v.line))
		v.stage = vbAtHome
		v.span.Seg(span.KSegNet, v.n.id)
		v.n.sendSpanTask(h, v.n.lat().Wire, v, v.span)
	case vbAtHome:
		h := v.n.home(mem.AddrOf(v.line))
		v.stage = vbDir
		v.span.Seg(span.KSegDir, h.id)
		h.memc.AcquireActor(sim.Time(h.lat().MemHold), v)
	case vbDir:
		v.n.home(mem.AddrOf(v.line)).dirWriteback(v)
	case vbAcked:
		v.n.writebackAcked(v)
	}
}

// Class is the pre-classification of an access, used by the processor to
// decide between continuing, a short no-switch stall, a long stall, or a
// context switch.
type Class int

const (
	// ClassPrimary: read hit in the primary cache (1 cycle).
	ClassPrimary Class = iota
	// ClassSecondary: serviced by the secondary cache (short stall: a
	// 13-cycle read fill or a 2-cycle owned write).
	ClassSecondary
	// ClassMiss: leaves the secondary cache (long latency; multiple-
	// context processors switch).
	ClassMiss
)

// Node is one processing node's complete memory system: caches, buffers,
// the slice of the distributed directory it is home for, and its bus and
// network-interface resources.
type Node struct {
	id    int
	k     *sim.Kernel
	cfg   *config.Config
	alloc *mem.Allocator
	st    *stats.Proc
	nodes []*Node // all nodes in the machine, including self

	prim *primaryCache
	sec  *secondaryCache

	// dir is this node's slice of the directory: one chunk per page homed
	// here, indexed by page number and allocated when a line of the page
	// first reaches this home (nil until then). layout is the organization
	// every entry's sharer set is stored in. parked holds the requests
	// waiting on busy entries, in arrival order.
	dir    []*dirChunk
	layout dirset.Layout
	parked []parkedReq

	// mshrs and victims hold the lines with a miss or a writeback in
	// flight at this node.
	mshrs   lineTable[mshr]
	victims lineTable[victimEntry]

	bus   *sim.Resource
	memc  *sim.Resource // memory + directory controller
	niIn  *sim.Resource
	niOut *sim.Resource

	pendingAcks int
	ackWaiters  []sim.Actor

	primBusyUntil sim.Time
	primBusyPF    bool

	wb   *writeBuffer
	pf   *prefetchBuffer
	mesh *Mesh          // optional 2-D mesh interconnect (nil = direct network)
	rec  *obs.Recorder  // optional observability recorder (nil = off)
	chk  *check.Checker // optional coherence invariant checker (nil = off)

	// syncDepth is > 0 while a synchronization primitive issues memory
	// accesses through this node, so their sampled spans classify as
	// sync transactions. spanAdopt hands a write-buffer entry's span to
	// the ownership transaction it drains into (set and cleared around
	// the AcquireOwnership call; see DESIGN.md's span lifecycle contract).
	syncDepth int
	spanAdopt *span.Span

	// Free lists for the transient transaction records on the hot paths.
	// They are per-node (per-kernel), matching the kernel's single-threaded
	// discipline — the runner simulates many machines concurrently, so
	// package-level pools would race.
	msgs         sim.Pool[netMsg]
	mshrPool     sim.Pool[mshr]
	secFills     sim.Pool[secFill]
	uncachedPool sim.Pool[uncachedOp]
	invals       sim.Pool[invalMsg]
	victimPool   sim.Pool[victimEntry]
	fwds         sim.Pool[fwdMsg]
	retries      sim.Pool[retryOp]
}

// NewNode constructs node id. Call Connect with the full node slice before
// simulating.
func NewNode(k *sim.Kernel, id int, cfg *config.Config, alloc *mem.Allocator, st *stats.Proc) *Node {
	n := &Node{
		id:    id,
		k:     k,
		cfg:   cfg,
		alloc: alloc,
		st:    st,
		prim:  newPrimaryCache(cfg.PrimaryBytes),
		sec:   newSecondaryCache(cfg.SecondaryBytes, max(1, cfg.SecondaryWays)),
		bus:   sim.NewResource(k, fmt.Sprintf("bus%d", id)),
		memc:  sim.NewResource(k, fmt.Sprintf("mem%d", id)),
		niIn:  sim.NewResource(k, fmt.Sprintf("niIn%d", id)),
		niOut: sim.NewResource(k, fmt.Sprintf("niOut%d", id)),
	}
	n.wb = newWriteBuffer(n)
	n.pf = newPrefetchBuffer(n)
	return n
}

// Connect wires the node to the rest of the machine, whose size sets
// the directory's layout.
func (n *Node) Connect(nodes []*Node) {
	n.nodes = nodes
	n.layout = dirset.NewLayout(n.cfg.DirOrg, len(nodes), n.cfg.DirPointers, n.cfg.DirCoarseness)
}

// SetObs installs an observability recorder (nil disables, the default).
// Hooks are nil-guarded pointer checks per the DESIGN.md contract.
func (n *Node) SetObs(rec *obs.Recorder) { n.rec = rec }

// spans returns the transaction tracer, nil when span tracing is off
// (every tracer and span method is safe on a nil receiver).
func (n *Node) spans() *span.Tracer {
	if n.rec == nil {
		return nil
	}
	return n.rec.Spans
}

// BeginSyncSpans and EndSyncSpans bracket the memory accesses a
// synchronization primitive issues on this node, so the transactions
// created inside trace as sync rather than plain reads/writes. Calls
// nest; the bracket is two integer ops, cheap enough to run
// unconditionally.
func (n *Node) BeginSyncSpans() { n.syncDepth++ }
func (n *Node) EndSyncSpans()   { n.syncDepth-- }

// spanKind classifies a new transaction for tracing.
func (n *Node) spanKind(kind mshrKind) span.Kind {
	if n.syncDepth > 0 {
		return span.KTxnSync
	}
	switch kind {
	case mshrRead:
		return span.KTxnRead
	case mshrWrite:
		return span.KTxnWrite
	}
	return span.KTxnPrefetch
}

// ID returns the node number.
func (n *Node) ID() int { return n.id }

// lat is shorthand for the latency parameters.
func (n *Node) lat() *config.Latencies { return &n.cfg.Lat }

// home returns the home node for an address.
func (n *Node) home(a mem.Addr) *Node { return n.nodes[n.alloc.Home(a)] }

// IsLocal reports whether this node is the home of a (the access can be
// serviced without network traffic).
func (n *Node) IsLocal(a mem.Addr) bool { return n.alloc.Home(a) == n.id }

// entry returns (creating if needed) the directory entry for a line homed
// at this node.
func (n *Node) entry(l mem.Line) *dirEntry {
	p := mem.PageOf(mem.AddrOf(l))
	if p >= uint64(len(n.dir)) {
		n.dir = append(n.dir, make([]*dirChunk, p+1-uint64(len(n.dir)))...)
	}
	c := n.dir[p]
	if c == nil {
		c = new(dirChunk)
		n.dir[p] = c
	}
	e := &c[l%mem.LinesPerPage]
	e.used = true
	return e
}

// lookup returns the directory entry for a line homed at this node, or
// nil if no request for the line has reached this home. Unlike entry it
// creates nothing, so observers can read the directory freely.
func (n *Node) lookup(l mem.Line) *dirEntry {
	p := mem.PageOf(mem.AddrOf(l))
	if p >= uint64(len(n.dir)) || n.dir[p] == nil {
		return nil
	}
	if e := &n.dir[p][l%mem.LinesPerPage]; e.used {
		return e
	}
	return nil
}

// sharers returns the read-only view of e's sharer set; e must be an
// entry of this home's directory.
func (n *Node) sharers(e *dirEntry) dirset.View { return n.layout.View(e.sharers) }

// lineTable maps each line with a transaction in flight at a node to the
// transaction's record. A node has few such lines at a time (measured
// peaks: 2 on LU, 5 on PTHOR at 64 processors, 24 on MP3D with
// prefetching and four contexts), so a lookup scans a short array of
// lines instead of hashing.
type lineTable[T any] struct {
	lines []mem.Line
	recs  []*T
}

// get returns l's record, or nil.
func (t *lineTable[T]) get(l mem.Line) *T {
	for i, x := range t.lines {
		if x == l {
			return t.recs[i]
		}
	}
	return nil
}

// put records r for l, which must not be in the table.
func (t *lineTable[T]) put(l mem.Line, r *T) {
	t.lines = append(t.lines, l)
	t.recs = append(t.recs, r)
}

// remove drops l's record, if any; the last entry takes its place.
func (t *lineTable[T]) remove(l mem.Line) {
	for i, x := range t.lines {
		if x == l {
			last := len(t.lines) - 1
			t.lines[i], t.recs[i] = t.lines[last], t.recs[last]
			t.recs[last] = nil
			t.lines, t.recs = t.lines[:last], t.recs[:last]
			return
		}
	}
}

// netMsg is one in-flight protocol message on the direct network: an Actor
// that walks itself through NI-out occupancy, wire latency and NI-in
// occupancy, then runs its delivery completion.
type netMsg struct {
	n     *Node // sender
	to    *Node
	wire  int
	stage msgStage
	done  sim.Actor
}

// msgStage is the message's next step when its event fires.
type msgStage uint8

const (
	msgPostOut  msgStage = iota // NI-out granted: traverse the wire
	msgPostWire                 // wire traversed: queue at receiver's NI-in
	msgDeliver                  // NI-in granted: deliver
)

// Act implements sim.Actor.
func (m *netMsg) Act() {
	switch m.stage {
	case msgPostOut:
		m.stage = msgPostWire
		m.n.k.AfterActor(sim.Time(m.wire), m)
	case msgPostWire:
		m.stage = msgDeliver
		m.to.niIn.AcquireActor(sim.Time(m.n.lat().NIHold), m)
	case msgDeliver:
		d := m.done
		m.done = nil
		m.n.msgs.Put(m)
		d.Act()
	}
}

// sendSpanTask models a protocol message from node n to node to: NI-out
// occupancy, wire latency, NI-in occupancy, then done at delivery.
// Messages between a node and itself take a short fixed local delay
// instead. sp is the sending transaction's span (nil when untraced), so
// the mesh can open one child per link crossed. The direct network
// allocates nothing; the mesh interconnect (an ablation) routes through
// closures.
func (n *Node) sendSpanTask(to *Node, wire int, done sim.Actor, sp *span.Span) {
	if to == n {
		n.k.AfterActor(2, done)
		return
	}
	if n.mesh != nil {
		n.niOut.AcquireActor(sim.Time(n.lat().NIHold), sim.Func(func() {
			n.mesh.Route(n.id, to.id, sp, sim.Func(func() {
				to.niIn.AcquireActor(sim.Time(n.lat().NIHold), done)
			}))
		}))
		return
	}
	m := n.msgs.Get()
	m.n, m.to, m.wire, m.done = n, to, wire, done
	m.stage = msgPostOut
	n.niOut.AcquireActor(sim.Time(n.lat().NIHold), m)
}

// hopCycles is the no-contention cost of one full network hop.
func (n *Node) hopCycles() int { return 2*n.lat().NIHold + n.lat().Wire }

// ClassifyRead classifies a shared read to addr without changing state.
func (n *Node) ClassifyRead(a mem.Addr) Class {
	if !n.cfg.CacheShared {
		return ClassMiss
	}
	l := mem.LineOf(a)
	if n.prim.Present(l) {
		return ClassPrimary
	}
	if n.sec.State(l) != Invalid {
		return ClassSecondary
	}
	return ClassMiss
}

// ClassifyWrite classifies a shared write (for SC stall decisions).
func (n *Node) ClassifyWrite(a mem.Addr) Class {
	if !n.cfg.CacheShared {
		return ClassMiss
	}
	if n.sec.State(mem.LineOf(a)) == Dirty {
		return ClassSecondary
	}
	return ClassMiss
}

// PrimaryBusy reports whether the primary cache port is locked out by a
// fill at time now, when it frees, and whether the fill was a prefetch
// (for overhead attribution).
func (n *Node) PrimaryBusy(now sim.Time) (until sim.Time, pf bool, busy bool) {
	if now < n.primBusyUntil {
		return n.primBusyUntil, n.primBusyPF, true
	}
	return 0, false, false
}

// lockPrimary records a primary-cache fill occupying the port until t.
func (n *Node) lockPrimary(t sim.Time, pf bool) {
	if t > n.primBusyUntil {
		n.primBusyUntil = t
		n.primBusyPF = pf
	}
}

// PendingAcks returns the number of invalidation acknowledgements this
// node is still waiting for.
func (n *Node) PendingAcks() int { return n.pendingAcks }

// onAllAcked runs done once pendingAcks reaches zero (immediately if it
// already is).
func (n *Node) onAllAcked(done sim.Actor) {
	if n.pendingAcks == 0 {
		done.Act()
		return
	}
	n.ackWaiters = append(n.ackWaiters, done)
}

func (n *Node) addAcks(count int) { n.pendingAcks += count }

func (n *Node) ackArrived() {
	if n.pendingAcks <= 0 {
		panic("memsys: ack arrived with none pending")
	}
	n.pendingAcks--
	if n.pendingAcks == 0 {
		// Waiters registered while these run (acks pending again) go to
		// a fresh list; otherwise the storage is reused.
		ws := n.ackWaiters
		n.ackWaiters = nil
		for _, w := range ws {
			w.Act()
		}
		if n.ackWaiters == nil {
			clear(ws)
			n.ackWaiters = ws[:0]
		}
	}
}

// CheckInvariants validates directory/cache consistency at a quiescent
// point (no in-flight transactions): every cached copy must be sanctioned
// by its home directory, and every dirty directory entry must have exactly
// its owner caching the line in Dirty state. Returns an error describing
// the first violation. The sweeps only peek at the caches, so they leave
// the replacement order as they found it.
func CheckInvariants(nodes []*Node) error {
	for _, node := range nodes {
		if n := len(node.mshrs.lines); n != 0 {
			return fmt.Errorf("node %d has %d in-flight MSHRs at quiescence", node.id, n)
		}
		if n := len(node.victims.lines); n != 0 {
			return fmt.Errorf("node %d has %d unacknowledged writebacks at quiescence", node.id, n)
		}
		if node.pendingAcks != 0 {
			return fmt.Errorf("node %d has %d pending acks at quiescence", node.id, node.pendingAcks)
		}
	}
	var err error
	for _, node := range nodes {
		node.sec.forEachValid(func(l mem.Line, st LineState) {
			if err != nil {
				return
			}
			home := nodes[node.alloc.Home(mem.AddrOf(l))]
			e := home.lookup(l)
			if e == nil {
				err = fmt.Errorf("node %d caches line %#x with no directory entry", node.id, l)
				return
			}
			switch st {
			case Shared:
				if e.state == DirDirty {
					err = fmt.Errorf("node %d has Shared copy of line %#x but directory says Dirty(owner %d)", node.id, l, e.owner)
				} else if !home.sharers(e).Contains(node.id) {
					err = fmt.Errorf("node %d has Shared copy of line %#x but is not in sharer set", node.id, l)
				}
			case Dirty:
				if e.state != DirDirty || int(e.owner) != node.id {
					err = fmt.Errorf("node %d has Dirty copy of line %#x but directory state=%d owner=%d", node.id, l, e.state, e.owner)
				}
			}
		})
		if err != nil {
			return err
		}
		// Inclusion: every primary line must be in the secondary.
		for i, tag := range node.prim.sets {
			if tag != 0 && node.sec.Peek(tag) == Invalid {
				return fmt.Errorf("node %d primary set %d holds line %#x not in secondary (inclusion violated)", node.id, i, tag)
			}
		}
	}
	// Dirty directory entries must have exactly one Dirty cached copy.
	// Pages and lines are walked in ascending order, so the first
	// violation reported is the lowest line at the lowest home.
	for _, home := range nodes {
		for p, c := range home.dir {
			if c == nil {
				continue
			}
			for i := range c {
				e := &c[i]
				if !e.used || e.state != DirDirty {
					continue
				}
				l := mem.Line(p*mem.LinesPerPage + i)
				if st := nodes[e.owner].sec.Peek(l); st != Dirty {
					return fmt.Errorf("directory at node %d says line %#x dirty at node %d, but that cache has state %v",
						home.id, l, e.owner, st)
				}
			}
		}
	}
	return nil
}

// BusUtilization returns the node bus utilization (for reports).
func (n *Node) BusUtilization() float64 { return n.bus.Utilization() }

// CacheSnapshot returns the node's valid secondary-cache lines as
// deterministic "line:state" strings, sorted by line. Tests use it to
// assert that different directory organizations converge to the same
// final memory state.
func (n *Node) CacheSnapshot() []string {
	var lines []string
	n.sec.forEachValid(func(l mem.Line, st LineState) {
		lines = append(lines, fmt.Sprintf("%#x:%d", uint64(l), int(st)))
	})
	sort.Strings(lines)
	return lines
}
