package memsys

import (
	"fmt"

	"latsim/internal/mem"
	"latsim/internal/obs"
	"latsim/internal/obs/span"
	"latsim/internal/sim"
)

// This file implements the protocol transactions. Timing is composed from
// the stage latencies in config.Latencies; with an idle machine the totals
// reproduce Table 1 of the paper exactly (asserted by machine tests):
//
//	read  fill from secondary            14 = issue 1 + SecLookup 7 + FillPrim 6
//	read  fill from local node           26 = 14 + Bus 4 + Mem 6 + FillSec 2
//	read  fill from home (remote)        72 = 26 + 2 hops (2*(4+15+4))
//	read  fill from dirty remote         90 = 72 + forward (4+3+4) + owner (4+3)
//	write owned by secondary cache        2 = SecCheckWrite
//	write owned by local node            18 = 2 + Bus 4 + Mem 6 + Grant 6
//	write owned in home (remote)         64 = 18 + 2 hops
//	write owned in dirty remote          82 = 64 + forward + owner
//
// Contention adds queueing at the bus, memory/directory controller and
// network-interface resources along each path.
//
// Each transaction is carried by a pooled Actor record that walks itself
// through the stages above: mshr (a miss), secFill (a secondary hit),
// fwdMsg (a request forwarded to a dirty owner), invalMsg (one
// invalidation and its ack), victimEntry (a dirty writeback), retryOp (an
// access retried after its line's writeback or in-flight fill) and
// uncachedOp (an access to uncacheable shared data). A request that finds
// its directory entry busy parks its own record on the home's list, and
// the invalidation fan-out walks the sharer set with dirset's Next. So
// the steady-state protocol paths allocate nothing; the mesh interconnect
// (an ablation) routes through closures.

// mshrStage is the miss transaction's next step when its event fires.
type mshrStage uint8

const (
	msIssue    mshrStage = iota // cache lookup done: arbitrate for the bus
	msToHome                    // bus granted: head for the home directory
	msAtHome                    // delivered at the home: queue for the controller
	msDir                       // controller granted: directory action
	msFill                      // data/grant reply arrived at the requester
	msFillPrim                  // secondary filled: fill the primary
	msComplete                  // transaction tail elapsed: complete
)

// write reports whether the transaction requests ownership at the
// directory (the ExclusiveGrant ablation can set excl on reads, so this
// keys off the kind, not excl).
func (m *mshr) write() bool { return m.kind == mshrWrite || m.kind == mshrPrefetchExcl }

// Act implements sim.Actor: the miss transaction's stage machine.
func (m *mshr) Act() {
	switch m.stage {
	case msIssue:
		m.issue()
	case msToHome:
		h := m.n.home(m.a)
		if h == m.n {
			m.stage = msDir
			m.span.Seg(span.KSegDir, h.id)
			h.memc.AcquireActor(sim.Time(h.lat().MemHold), m)
			return
		}
		m.stage = msAtHome
		m.span.Seg(span.KSegNet, m.n.id)
		m.n.sendSpanTask(h, m.n.lat().Wire, m, m.span)
	case msAtHome:
		h := m.n.home(m.a)
		m.stage = msDir
		m.span.Seg(span.KSegDir, h.id)
		h.memc.AcquireActor(sim.Time(h.lat().MemHold), m)
	case msDir:
		h := m.n.home(m.a)
		if m.write() {
			h.dirWrite(m.a, m.n, m)
		} else {
			h.dirRead(m.a, m.n, m)
		}
	case msFill:
		m.n.finishFill(m)
	case msFillPrim:
		lat := m.n.lat()
		isPF := m.kind == mshrPrefetch || m.kind == mshrPrefetchExcl
		m.n.lockPrimary(m.n.k.Now()+sim.Time(lat.FillPrim), isPF)
		m.stage = msComplete
		m.n.k.AfterActor(sim.Time(lat.FillPrim), m)
	case msComplete:
		m.n.completeFill(m)
	}
}

// issue takes the miss onto the node bus (the prefetch buffer calls this
// directly, having already paid its check latency).
func (m *mshr) issue() {
	m.stage = msToHome
	m.span.Seg(span.KSegBus, m.n.id)
	m.n.bus.AcquireActor(sim.Time(m.n.lat().BusHold), m)
}

// newMSHR allocates a miss record from the machine's free list. If a
// write-buffer entry is handing its span down (spanAdopt), the miss
// continues that span; otherwise the miss is a transaction root and may
// start its own. Either way the secondary lookup in progress becomes the
// span's first segment.
func (n *Node) newMSHR(a mem.Addr, kind mshrKind, excl bool) *mshr {
	m := n.sh.mshrPool.Get()
	m.n, m.a, m.line = n, a, mem.LineOf(a)
	m.kind, m.excl = kind, excl
	m.invalidated = false
	m.started = n.k.Now()
	if ad := n.spanAdopt; ad != nil {
		m.span, m.spanAdopted = ad, true
	} else {
		m.span, m.spanAdopted = n.spans().Start(n.spanKind(kind), n.id), false
	}
	m.span.Seg(span.KSegLookup, n.id)
	return m
}

// secFill carries a secondary-cache read hit through the lookup and
// primary-fill stages.
type secFill struct {
	n     *Node
	line  mem.Line
	stage sfStage
	done  sim.Actor // nil: no completion (a spin refetch)
	span  *span.Span
}

// sfStage is the secondary fill's next step when its event fires.
type sfStage uint8

const (
	sfLock    sfStage = iota // lookup done: lock the primary port for the fill
	sfInstall                // fill done: install and complete
)

// Act implements sim.Actor.
func (s *secFill) Act() {
	n := s.n
	switch s.stage {
	case sfLock:
		fill := sim.Time(n.lat().FillPrim)
		n.lockPrimary(n.k.Now()+fill, false)
		s.stage = sfInstall
		s.span.Seg(span.KSegFill, n.id)
		n.k.AfterActor(fill, s)
	case sfInstall:
		// The line may have been invalidated or evicted from the
		// secondary while this fill was in flight; keep inclusion by
		// skipping the primary install then.
		if n.sec.State(s.line) != Invalid {
			n.prim.Install(s.line)
		}
		s.span.End()
		s.span = nil
		d := s.done
		s.done = nil
		n.sh.secFills.Put(s)
		if d != nil {
			d.Act()
		}
	}
}

// Read performs a demand read of shared data that missed the primary
// cache; done runs when the read completes (nil: no completion). The
// caller (the processor) accounts the 1-cycle issue itself and must not
// call this for primary hits.
func (n *Node) Read(a mem.Addr, done sim.Actor) {
	if !n.cfg.CacheShared {
		n.uncachedRead(a, done)
		return
	}
	l := mem.LineOf(a)
	if n.prim.Present(l) {
		panic("memsys: Read called for a primary-cache hit")
	}
	if n.sec.State(l) != Invalid {
		// Secondary hit: fill the primary.
		s := n.sh.secFills.Get()
		s.n, s.line, s.done = n, l, done
		s.stage = sfLock
		kind := span.KTxnRead
		if n.syncDepth > 0 {
			kind = span.KTxnSync
		}
		s.span = n.spans().Start(kind, n.id)
		s.span.Seg(span.KSegLookup, n.id)
		n.k.AfterActor(sim.Time(n.lat().SecLookup), s)
		return
	}
	if v := n.victims.get(l); v != nil {
		// The line is in the writeback buffer on its way out; wait for
		// the home to acknowledge, then retry.
		v.waiters = append(v.waiters, n.retry(a, false, done))
		return
	}
	if m := n.mshrs.get(l); m != nil {
		if m.kind == mshrPrefetch || m.kind == mshrPrefetchExcl {
			n.st.PrefetchLate++
		}
		m.waiters = append(m.waiters, done)
		return
	}
	n.st.ReadMisses++
	m := n.newMSHR(a, mshrRead, false)
	m.waiters = append(m.waiters, done)
	n.mshrs.put(l, m)
	m.stage = msIssue
	n.k.AfterActor(sim.Time(n.lat().SecLookup), m)
}

// AcquireOwnership obtains exclusive ownership of the line containing a
// (the write path: retiring a write from the write buffer). done runs when
// ownership is granted — the write's retirement point per Table 1, which
// does not include invalidation acknowledgements.
func (n *Node) AcquireOwnership(a mem.Addr, done sim.Actor) {
	if !n.cfg.CacheShared {
		n.uncachedWrite(a, done)
		return
	}
	l := mem.LineOf(a)
	if n.sec.State(l) == Dirty {
		n.st.WriteOwnedHit++
		// An adopted span (a write-buffer entry draining) records the
		// ownership check; the entry ends the span at retirement.
		if sp := n.spanAdopt; sp != nil {
			sp.Seg(span.KSegLookup, n.id)
		}
		n.k.AfterActor(sim.Time(n.lat().SecCheckWrite), done)
		return
	}
	if v := n.victims.get(l); v != nil {
		v.waiters = append(v.waiters, n.retry(a, true, done))
		return
	}
	if m := n.mshrs.get(l); m != nil {
		if m.kind == mshrPrefetch || m.kind == mshrPrefetchExcl {
			n.st.PrefetchLate++
		}
		// Wait for the in-flight fill, then reclassify: the fill may
		// deliver ownership (write/pf-exclusive) or only a shared copy
		// (then this becomes an upgrade).
		m.waiters = append(m.waiters, n.retry(a, true, done))
		return
	}
	n.st.WriteMisses++
	m := n.newMSHR(a, mshrWrite, true)
	m.waiters = append(m.waiters, done)
	n.mshrs.put(l, m)
	m.stage = msIssue
	n.k.AfterActor(sim.Time(n.lat().SecCheckWrite), m)
}

// retryOp re-issues a demand read or ownership request that waited for
// its line's writeback or in-flight fill to finish.
type retryOp struct {
	n     *Node
	a     mem.Addr
	write bool
	done  sim.Actor
}

// retry draws a retry record for an access to a from the machine's
// free list.
func (n *Node) retry(a mem.Addr, write bool, done sim.Actor) *retryOp {
	r := n.sh.retries.Get()
	r.n, r.a, r.write, r.done = n, a, write, done
	return r
}

// Act implements sim.Actor: recycle the record, then re-issue the access.
func (r *retryOp) Act() {
	n, a, write, done := r.n, r.a, r.write, r.done
	r.done = nil
	n.sh.retries.Put(r)
	if write {
		n.AcquireOwnership(a, done)
	} else {
		n.Read(a, done)
	}
}

// dirRead is the home directory's handling of a read request. Runs at the
// home node when its memory/directory controller grants the request.
func (h *Node) dirRead(a mem.Addr, req *Node, m *mshr) {
	l := mem.LineOf(a)
	e := h.entry(l)
	if e.busy {
		h.parked = append(h.parked, parkedReq{l, m})
		return
	}
	if h.rec != nil {
		h.rec.DirTxn(obs.DirRead)
	}
	switch e.state {
	case DirUncached:
		if h.cfg.ExclusiveGrant {
			// MESI-style exclusive grant (ablation, off by default —
			// the paper's protocol returns a shared copy): nobody else
			// caches the line, so the reply carries ownership and a
			// subsequent write by the reader hits locally.
			e.state = DirDirty
			e.owner = int32(req.id)
			h.sh.layout.Clear(&e.sharers)
			m.excl = true
			h.dirEvent(l)
			h.replyFill(req, m)
			return
		}
		e.state = DirShared
		h.sh.layout.Clear(&e.sharers)
		h.sharerAdd(e, req.id)
		h.dirEvent(l)
		h.replyFill(req, m)
	case DirShared:
		h.sharerAdd(e, req.id)
		h.dirEvent(l)
		h.replyFill(req, m)
	case DirDirty:
		if int(e.owner) == req.id {
			panic(fmt.Sprintf("memsys: node %d read-missed a line the directory says it owns (line %#x)", req.id, l))
		}
		owner := h.nodes[e.owner]
		e.state = DirShared
		h.sh.layout.Clear(&e.sharers)
		h.sharerAdd(e, owner.id)
		h.sharerAdd(e, req.id)
		e.busy = true
		h.dirEvent(l)
		h.forward(owner, m, false)
	}
}

// dirWrite is the home directory's handling of an ownership request.
func (h *Node) dirWrite(a mem.Addr, req *Node, m *mshr) {
	l := mem.LineOf(a)
	e := h.entry(l)
	if e.busy {
		h.parked = append(h.parked, parkedReq{l, m})
		return
	}
	if h.rec != nil {
		h.rec.DirTxn(obs.DirWrite)
	}
	switch e.state {
	case DirUncached:
		e.state = DirDirty
		e.owner = int32(req.id)
		h.sh.layout.Clear(&e.sharers)
		h.dirEvent(l)
		h.replyFill(req, m)
	case DirShared:
		// Invalidate every represented sharer except the requester; acks
		// flow directly to the requester (DASH style). Next yields
		// ascending node ids, preserving the event order of the old
		// ascending bitmask scan. For an imprecise organization (an
		// overflowed limited-pointer entry broadcasts machine-wide, a
		// coarse-vector group fans out to every member) some targets hold
		// no copy; those invalidations are spurious and ack harmlessly.
		count := 0
		sharers := h.sharers(e)
		for id := sharers.Next(0); id >= 0; id = sharers.Next(id + 1) {
			if id == req.id {
				continue
			}
			count++
			h.st.InvalsSent++
			if h.rec != nil {
				h.rec.DirTxn(obs.DirInval)
			}
			if h.chk != nil {
				h.chk.InvalSent(id, l)
			}
			sharer := h.nodes[id]
			im := h.sh.invals.Get()
			im.n, im.req, im.line = sharer, req, l
			im.stage = invArrive
			im.span = m.span.Child(span.KSegInval, id)
			h.sendSpanTask(sharer, h.lat().Wire, im, im.span)
		}
		e.state = DirDirty
		e.owner = int32(req.id)
		h.sh.layout.Clear(&e.sharers)
		h.dirEvent(l)
		req.addAcks(count)
		h.replyFill(req, m)
	case DirDirty:
		if int(e.owner) == req.id {
			panic(fmt.Sprintf("memsys: node %d write-missed a line the directory says it owns (line %#x)", req.id, l))
		}
		owner := h.nodes[e.owner]
		e.owner = int32(req.id)
		e.busy = true
		h.dirEvent(l)
		h.forward(owner, m, true)
	}
}

// replyFill models the data/grant reply from home to requester; on
// delivery the mshr continues with the fill tail.
func (h *Node) replyFill(req *Node, m *mshr) {
	m.stage = msFill
	m.span.Seg(span.KSegReply, h.id)
	if h == req {
		h.k.AfterActor(0, m)
		return
	}
	h.sendSpanTask(req, h.lat().Wire, m, m.span)
}

// fwdMsg carries a request the home forwarded to the line's dirty owner.
// For a read the owner downgrades to Shared; for a write it relinquishes
// the line. Either way it replies directly to the requester and sends a
// completion (sharing writeback / transfer notice) to the home, whose
// controller then clears the entry's busy state. The home draws the
// record from the machine's free list and returns it at the last stage.
type fwdMsg struct {
	home, owner *Node
	m           *mshr // the requester's miss
	line        mem.Line
	write       bool
	stage       fwdStage
}

// fwdStage is the forward's next step when its event fires.
type fwdStage uint8

const (
	fwdArrive fwdStage = iota // delivered at the owner: arbitrate its bus
	fwdBus                    // owner's bus granted: access its cache
	fwdAccess                 // cache access done: apply, reply, notify the home
	fwdAtHome                 // notice delivered at the home: queue for the controller
	fwdUnbusy                 // home controller granted: clear the busy entry
)

// forward sends m's request on to owner, the line's dirty owner. The
// caller has marked the entry busy.
func (h *Node) forward(owner *Node, m *mshr, write bool) {
	if h.rec != nil {
		h.rec.DirTxn(obs.DirForward)
	}
	m.span.Seg(span.KSegNet, h.id)
	f := h.sh.fwds.Get()
	f.home, f.owner, f.m, f.line, f.write = h, owner, m, m.line, write
	f.stage = fwdArrive
	h.sendSpanTask(owner, h.lat().WireForward, f, m.span)
}

// Act implements sim.Actor.
func (f *fwdMsg) Act() {
	o, l := f.owner, f.line
	lat := o.lat()
	switch f.stage {
	case fwdArrive:
		if om := o.mshrs.get(l); om != nil {
			// Our own fill for the line is still in flight; the forward
			// waits for it, exactly as a lockup-free cache queues external
			// requests against an MSHR. completeFill re-runs this stage.
			om.queuedMsgs = append(om.queuedMsgs, f)
			return
		}
		f.m.span.Seg(span.KSegOwner, o.id)
		f.stage = fwdBus
		o.bus.AcquireActor(sim.Time(lat.BusHold), f)
	case fwdBus:
		f.stage = fwdAccess
		o.k.AfterActor(sim.Time(lat.OwnerAccess), f)
	case fwdAccess:
		// Re-examine state at apply time: the line may have been
		// evicted (moved to the writeback/victim buffer) while the
		// forward waited for the bus.
		if o.victims.get(l) != nil {
			// Serve the data from the victim buffer; the local copy
			// is already gone.
		} else if o.sec.State(l) == Dirty {
			if f.write {
				o.sec.Invalidate(l)
				o.prim.Invalidate(l)
			} else {
				o.sec.SetState(l, Shared)
			}
		} else {
			panic(fmt.Sprintf("memsys: forward for line %#x reached node %d which is not owner (state %v)", l, o.id, o.sec.State(l)))
		}
		m := f.m
		m.stage = msFill
		m.span.Seg(span.KSegReply, o.id)
		o.sendSpanTask(m.n, lat.Wire, m, m.span)
		// Completion to home: carries the sharing writeback (read) or the
		// ownership-transfer notice (write) and unblocks the entry.
		f.stage = fwdAtHome
		o.sendSpanTask(f.home, lat.Wire, f, nil)
	case fwdAtHome:
		f.stage = fwdUnbusy
		f.home.memc.AcquireActor(sim.Time(lat.MemHold), f)
	case fwdUnbusy:
		h := f.home
		f.home, f.owner, f.m = nil, nil, nil
		h.sh.fwds.Put(f)
		h.dirUnbusy(l)
	}
}

// dirUnbusy clears the busy bit and sends the requests parked on the
// line back to the controller, in arrival order.
func (h *Node) dirUnbusy(l mem.Line) {
	e := h.entry(l)
	if !e.busy {
		panic(fmt.Sprintf("memsys: dirUnbusy on non-busy line %#x", l))
	}
	e.busy = false
	h.dirEvent(l)
	// Re-acquiring the controller only schedules, so the list can be
	// compacted in place.
	kept := h.parked[:0]
	for _, p := range h.parked {
		if p.line != l {
			kept = append(kept, p)
			continue
		}
		h.memc.AcquireActor(sim.Time(h.lat().MemHold), p.req)
	}
	clear(h.parked[len(kept):])
	h.parked = kept
}

// dirEvent notifies the invariant checker that a directory transaction
// on line l just updated the entry at this home node.
func (h *Node) dirEvent(l mem.Line) {
	if h.chk != nil {
		h.chk.DirEvent(h.id, l)
	}
}

// sharerAdd records id in the entry's sharer set and accounts the
// overflow when the add tipped a limited-pointer entry into broadcast
// mode (the Dir_i B overflow event).
func (h *Node) sharerAdd(e *dirEntry, id int) {
	if h.sh.layout.Add(&e.sharers, id) {
		h.st.DirOverflows++
		if h.rec != nil {
			h.rec.DirTxn(obs.DirOverflow)
		}
	}
}

// invalMsg carries one invalidation from the home to a sharer and the
// acknowledgement from the sharer to the requesting writer.
type invalMsg struct {
	n     *Node // the sharer being invalidated
	req   *Node // the writer awaiting the ack
	line  mem.Line
	stage invStage
	span  *span.Span // child of the writer's transaction span, if sampled
}

// invStage is the invalidation's next step when its event fires.
type invStage uint8

const (
	invArrive invStage = iota // delivered at the sharer: arbitrate its bus
	invApply                  // bus granted: apply the invalidation, send ack
	invAck                    // ack delivered at the writer
)

// Act implements sim.Actor.
func (im *invalMsg) Act() {
	n := im.n
	switch im.stage {
	case invArrive:
		im.stage = invApply
		n.bus.AcquireActor(sim.Time(n.lat().InvalApply), im)
	case invApply:
		l := im.line
		st := n.sec.State(l)
		if st == Dirty {
			// Stale invalidation: it was sent while this node held a
			// shared copy, but the node's own upgrade — serialized at
			// the home *after* the invalidating write — completed while
			// the invalidation waited for the bus. The dirty copy is
			// the newer incarnation; acknowledge without invalidating.
			if n.chk != nil {
				n.chk.InvalApplied(n.id, l)
			}
			im.stage = invAck
			n.sendSpanTask(im.req, n.lat().Wire, im, im.span)
			return
		}
		// An invalidation that finds no copy and no shared fill to kill
		// is spurious: the directory's superset (a stale entry after a
		// silent eviction, or an imprecise organization's slack) named a
		// non-sharer. It still costs the wire, this bus hold and the ack
		// — the precision-loss tax the directory-scaling experiment
		// measures.
		spurious := st == Invalid
		if m := n.mshrs.get(l); m != nil && !m.excl {
			// A shared-copy fill is in flight; it will install and be
			// invalidated immediately, still satisfying its waiters.
			m.invalidated = true
			spurious = false
		}
		if spurious {
			n.st.SpuriousInvals++
			if n.rec != nil {
				n.rec.DirTxn(obs.DirSpurious)
			}
		}
		n.sec.Invalidate(l)
		n.prim.Invalidate(l)
		if n.chk != nil {
			n.chk.InvalApplied(n.id, l)
		}
		im.stage = invAck
		n.sendSpanTask(im.req, n.lat().Wire, im, im.span)
	case invAck:
		im.span.End()
		im.span = nil
		im.req.ackArrived()
		im.req = nil
		n.sh.invals.Put(im)
	}
}

// finishFill runs at the requester when the data/grant reply arrives and
// models the tail of the transaction (grant processing for writes, cache
// fill for reads and prefetches) before completing the MSHR.
func (n *Node) finishFill(m *mshr) {
	lat := n.lat()
	m.span.Seg(span.KSegFill, n.id)
	if m.kind == mshrWrite {
		m.stage = msComplete
		n.k.AfterActor(sim.Time(lat.WriteGrant), m)
		return
	}
	m.stage = msFillPrim
	n.k.AfterActor(sim.Time(lat.FillSec), m)
}

// completeFill installs the line, resolves the MSHR, wakes demand waiters
// and replays protocol messages that arrived during the miss.
func (n *Node) completeFill(m *mshr) {
	l := m.line
	if vl, vstate, ok := n.sec.Victim(l); ok {
		n.prim.Invalidate(vl)
		if vstate == Dirty {
			n.startWriteback(vl, m.span)
		}
		// Shared victims are dropped silently; the directory keeps a
		// stale sharer bit and a later spurious invalidation is
		// harmless (it is acknowledged regardless).
	}
	state := Shared
	if m.excl {
		state = Dirty
	}
	n.sec.Install(l, state)
	if m.kind != mshrWrite {
		n.prim.Install(l)
	}
	if m.invalidated {
		n.sec.Invalidate(l)
		n.prim.Invalidate(l)
	}
	if n.chk != nil {
		n.chk.FillApplied(n.id, l)
	}
	if m.kind == mshrRead {
		n.st.ReadMissCycles += n.k.Now() - m.started
	}
	if n.rec != nil {
		cl := obs.PrefetchFill
		switch m.kind {
		case mshrRead:
			cl = obs.ReadMiss
		case mshrWrite:
			cl = obs.WriteMiss
		}
		n.rec.Miss(cl, n.IsLocal(m.a), n.k.Now()-m.started)
	}
	// An adopted span still belongs to the write-buffer entry, which ends
	// it at retirement; a span this miss opened closes here.
	if !m.spanAdopted {
		m.span.End()
	}
	m.span, m.spanAdopted = nil, false
	// Free-list discipline: unlink the record, run the callback lists by
	// index (they may start new transactions, which draw fresh records —
	// this one is not recycled until they are done), then clear and free.
	n.mshrs.remove(l)
	for i := 0; i < len(m.waiters); i++ {
		if w := m.waiters[i]; w != nil {
			w.Act()
		}
	}
	for i := 0; i < len(m.queuedMsgs); i++ {
		m.queuedMsgs[i].Act()
	}
	m.waiters = m.waiters[:0]
	clear(m.queuedMsgs)
	m.queuedMsgs = m.queuedMsgs[:0]
	n.sh.mshrPool.Put(m)
}

// startWriteback sends a dirty victim back to its home. The data stays in
// the victim buffer (servicing any forwards) until the home acknowledges.
// parent is the span of the fill that evicted the victim (nil when
// untraced); the writeback traces as its child so the waterfall can keep
// background writeback traffic out of the stall attribution.
func (n *Node) startWriteback(l mem.Line, parent *span.Span) {
	if n.victims.get(l) != nil {
		panic(fmt.Sprintf("memsys: duplicate writeback for line %#x", l))
	}
	v := n.sh.victimPool.Get()
	v.n, v.line = n, l
	n.victims.put(l, v)
	v.stage = vbToHome
	v.span = parent.Child(span.KTxnWriteback, n.id)
	v.span.Seg(span.KSegBus, n.id)
	n.bus.AcquireActor(sim.Time(n.lat().BusHold), v)
}

// dirWriteback processes a dirty-victim writeback at the home.
func (h *Node) dirWriteback(v *victimEntry) {
	l, from := v.line, v.n
	e := h.entry(l)
	if e.busy {
		h.parked = append(h.parked, parkedReq{l, v})
		return
	}
	if h.rec != nil {
		h.rec.DirTxn(obs.DirWriteback)
	}
	if e.state == DirDirty && int(e.owner) == from.id {
		e.state = DirUncached
		h.sh.layout.Clear(&e.sharers)
	} else {
		// Stale writeback: the line was forwarded away before the
		// writeback arrived. Drop the data; clear any stale sharer entry
		// (best-effort — an imprecise representation may keep the node as
		// part of its superset).
		h.sh.layout.Remove(&e.sharers, from.id)
		if e.state == DirShared && h.sharers(e).Len() == 0 {
			e.state = DirUncached
		}
	}
	h.dirEvent(l)
	v.stage = vbAcked
	v.span.Seg(span.KSegReply, h.id)
	h.sendSpanTask(from, h.lat().Wire, v, v.span)
}

// writebackAcked clears the victim buffer entry and retries accesses that
// were waiting for the line to finish leaving.
func (n *Node) writebackAcked(v *victimEntry) {
	l := v.line
	if n.victims.get(l) != v {
		panic(fmt.Sprintf("memsys: writeback ack for unknown line %#x", l))
	}
	n.victims.remove(l)
	v.span.End()
	v.span = nil
	for i := 0; i < len(v.waiters); i++ {
		v.waiters[i].Act()
	}
	clear(v.waiters)
	v.waiters = v.waiters[:0]
	n.sh.victimPool.Put(v)
}

// uncachedOp carries a shared access when shared data is not cacheable
// (the Figure 2 baseline): straight to the home memory, no fill.
type uncachedOp struct {
	n       *Node
	home    *Node
	tail    int
	started sim.Time
	read    bool
	stage   ucStage
	done    sim.Actor // nil: no completion (a spin refetch)

	// span traces the access when sampled; adopted spans belong to the
	// write-buffer entry that drained into this access (see mshr).
	span        *span.Span
	spanAdopted bool
}

// ucStage is the uncached access's next step when its event fires.
type ucStage uint8

const (
	ucPostBus ucStage = iota // node bus granted
	ucAtHome                 // delivered at the (remote) home
	ucPostMem                // memory controller granted
	ucBack                   // reply delivered back at the requester
	ucFinish                 // access tail elapsed: complete
)

// Act implements sim.Actor.
func (u *uncachedOp) Act() {
	n := u.n
	switch u.stage {
	case ucPostBus:
		if u.home == n {
			u.stage = ucPostMem
			u.span.Seg(span.KSegMem, n.id)
			n.memc.AcquireActor(sim.Time(n.lat().MemHold), u)
			return
		}
		u.stage = ucAtHome
		u.span.Seg(span.KSegNet, n.id)
		n.sendSpanTask(u.home, n.lat().Wire, u, u.span)
	case ucAtHome:
		u.stage = ucPostMem
		u.span.Seg(span.KSegMem, u.home.id)
		u.home.memc.AcquireActor(sim.Time(u.home.lat().MemHold), u)
	case ucPostMem:
		if u.home == n {
			u.stage = ucFinish
			n.k.AfterActor(sim.Time(u.tail), u)
			return
		}
		u.stage = ucBack
		u.span.Seg(span.KSegReply, u.home.id)
		u.home.sendSpanTask(n, u.home.lat().Wire, u, u.span)
	case ucBack:
		u.stage = ucFinish
		u.span.Seg(span.KSegMem, n.id)
		n.k.AfterActor(sim.Time(u.tail), u)
	case ucFinish:
		if u.read {
			n.st.ReadMissCycles += n.k.Now() - u.started
		}
		if n.rec != nil {
			cl := obs.WriteMiss
			if u.read {
				cl = obs.ReadMiss
			}
			n.rec.Miss(cl, u.home == n, n.k.Now()-u.started)
		}
		if !u.spanAdopted {
			u.span.End()
		}
		u.span, u.spanAdopted = nil, false
		d := u.done
		u.done = nil
		n.sh.uncachedPool.Put(u)
		if d != nil {
			d.Act()
		}
	}
}

// uncachedRead services a shared read without caching.
func (n *Node) uncachedRead(a mem.Addr, done sim.Actor) {
	n.st.ReadMisses++
	lat := n.lat()
	u := n.sh.uncachedPool.Get()
	u.n, u.home, u.read, u.done = n, n.home(a), true, done
	u.started = n.k.Now()
	n.spanUncached(u, span.KTxnRead)
	if u.home == n {
		u.tail = clampNonNeg(lat.UncachedReadLocal - 1 - lat.BusHold - lat.MemHold)
	} else {
		u.tail = clampNonNeg(lat.UncachedReadRemote - 1 - lat.BusHold - 2*n.hopCycles() - lat.MemHold)
	}
	u.stage = ucPostBus
	n.bus.AcquireActor(sim.Time(lat.BusHold), u)
}

// uncachedWrite retires a shared write to home memory without caching.
func (n *Node) uncachedWrite(a mem.Addr, done sim.Actor) {
	n.st.WriteMisses++
	lat := n.lat()
	u := n.sh.uncachedPool.Get()
	u.n, u.home, u.read, u.done = n, n.home(a), false, done
	u.started = n.k.Now()
	n.spanUncached(u, span.KTxnWrite)
	if u.home == n {
		u.tail = clampNonNeg(lat.UncachedWriteLocal - lat.BusHold - lat.MemHold)
	} else {
		u.tail = clampNonNeg(lat.UncachedWriteRemote - lat.BusHold - n.hopCycles() - lat.MemHold - n.hopCycles())
	}
	u.stage = ucPostBus
	n.bus.AcquireActor(sim.Time(lat.BusHold), u)
}

// spanUncached opens (or adopts) the uncached access's span and records
// the bus arbitration it is about to enter.
func (n *Node) spanUncached(u *uncachedOp, kind span.Kind) {
	if ad := n.spanAdopt; ad != nil {
		u.span, u.spanAdopted = ad, true
	} else {
		if n.syncDepth > 0 {
			kind = span.KTxnSync
		}
		u.span, u.spanAdopted = n.spans().Start(kind, n.id), false
	}
	u.span.Seg(span.KSegBus, n.id)
}

func clampNonNeg(v int) int {
	if v < 0 {
		return 0
	}
	return v
}
