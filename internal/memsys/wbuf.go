package memsys

import (
	"latsim/internal/config"
	"latsim/internal/mem"
	"latsim/internal/obs/span"
	"latsim/internal/sim"
)

// Releaser is a synchronization object whose release store is buffered: it
// is notified when that store retires from the write buffer, before the
// entry's onRetire completions run. *msync.Lock implements it, so an
// unlock passes the lock itself and allocates nothing, although the
// releasing context moves on before the store retires.
type Releaser interface {
	ReleaseRetired()
}

// wbEntry is one write awaiting retirement from the write buffer. A write
// retires when exclusive ownership of its line is acquired (Table 1). The
// entry is a sim.Actor: the ownership grant re-enters it directly.
type wbEntry struct {
	w        *writeBuffer
	addr     mem.Addr
	line     mem.Line
	release  bool
	issued   bool
	rel      Releaser
	onRetire []sim.Actor

	// span traces the write from enqueue to retirement when sampled; the
	// ownership transaction the entry drains into adopts it (spanAdopt).
	span *span.Span
}

// Act implements sim.Actor: ownership of the line was acquired.
func (e *wbEntry) Act() { e.w.retire(e) }

// writeBuffer is the 16-entry processor write buffer. Entries occupy the
// buffer from enqueue until their ownership transaction completes. Under
// RC several writes may be in flight at once (pipelined through the
// lockup-free secondary cache); a release waits at the head until all
// previous writes have retired and all invalidation acks have arrived.
type writeBuffer struct {
	n            *Node
	entries      []*wbEntry
	inflight     int
	releaseArmed bool // the buffer is registered with onAllAcked for a blocked release
	spaceWaiters []sim.Actor
	drainWaiters []sim.Actor // fences waiting for the buffer to empty
}

func newWriteBuffer(n *Node) *writeBuffer { return &writeBuffer{n: n} }

// Act implements sim.Actor: the invalidation acks a blocked release was
// waiting for have all arrived, so drain again.
func (w *writeBuffer) Act() {
	w.releaseArmed = false
	w.drain()
}

// WBEnqueue adds a write to the buffer; onRetire (nil: none) runs when
// the write retires (ownership acquired). Non-release writes coalesce into
// an existing entry for the same line. Returns false if the buffer is
// full — the processor must stall and retry via WBOnSpace.
func (n *Node) WBEnqueue(a mem.Addr, release bool, onRetire sim.Actor) bool {
	return n.wb.enqueue(a, release, nil, onRetire)
}

// WBEnqueueRelease buffers a release store (an unlock): rel is notified
// when the store retires, before any onRetire completion runs.
func (n *Node) WBEnqueueRelease(a mem.Addr, rel Releaser, onRetire sim.Actor) bool {
	return n.wb.enqueue(a, true, rel, onRetire)
}

// WBOnSpace registers done to run when a write-buffer slot frees.
func (n *Node) WBOnSpace(done sim.Actor) {
	n.wb.spaceWaiters = append(n.wb.spaceWaiters, done)
}

// WBPendingLine reports whether a write to the same line as a is still in
// the write buffer; reads to that line must wait for it to retire.
func (n *Node) WBPendingLine(a mem.Addr) bool {
	l := mem.LineOf(a)
	for _, e := range n.wb.entries {
		if e.line == l {
			return true
		}
	}
	return false
}

// WBOnLineRetire runs done when the first write to a's line now in the
// buffer retires, or immediately if no write to the line is buffered.
// Another write to the line may have been buffered meanwhile, so the
// caller must re-check WBPendingLine and re-register if needed.
func (n *Node) WBOnLineRetire(a mem.Addr, done sim.Actor) {
	l := mem.LineOf(a)
	for _, e := range n.wb.entries {
		if e.line == l {
			e.onRetire = append(e.onRetire, done)
			return
		}
	}
	done.Act()
}

// WBEmpty reports whether the write buffer has no entries at all.
func (n *Node) WBEmpty() bool { return len(n.wb.entries) == 0 }

// WBOnDrained runs done once the write buffer is empty, nothing is in
// flight, and all invalidation acknowledgements have arrived — a full
// memory fence (weak consistency's synchronization condition).
func (n *Node) WBOnDrained(done sim.Actor) {
	if len(n.wb.entries) == 0 && n.wb.inflight == 0 {
		n.onAllAcked(done)
		return
	}
	n.wb.drainWaiters = append(n.wb.drainWaiters, done)
}

func (w *writeBuffer) enqueue(a mem.Addr, release bool, rel Releaser, onRetire sim.Actor) bool {
	l := mem.LineOf(a)
	if !release {
		for _, e := range w.entries {
			if e.line == l && !e.release {
				if onRetire != nil {
					e.onRetire = append(e.onRetire, onRetire)
				}
				return true
			}
		}
	}
	if len(w.entries) >= w.n.cfg.WriteBufferDepth {
		return false
	}
	e := w.n.sh.wbEntries.Get()
	e.w = w
	e.addr, e.line = a, l
	e.release, e.issued = release, false
	e.rel = rel
	kind := span.KTxnWrite
	if release || w.n.syncDepth > 0 {
		kind = span.KTxnSync
	}
	e.span = w.n.spans().Start(kind, w.n.id)
	e.span.Seg(span.KSegWB, w.n.id)
	if onRetire != nil {
		e.onRetire = append(e.onRetire, onRetire)
	}
	w.entries = append(w.entries, e)
	if w.n.chk != nil {
		w.n.chk.WBEnqueue(w.n.id)
	}
	if w.n.rec != nil {
		w.n.rec.WBDepth(w.n.id, len(w.entries))
	}
	w.drain()
	return true
}

// drain issues as many writes as the consistency model's pipelining
// allows. Under PC writes perform strictly in program order (one
// outstanding ownership request); under WC/RC they pipeline up to the
// lockup-free cache's write MSHRs. Releases gate on being the oldest
// entry with nothing in flight and — except under PC — no pending
// invalidation acks.
func (w *writeBuffer) drain() {
	limit := w.n.cfg.MaxOutstandingWrites
	if w.n.cfg.Model == config.PC {
		limit = 1
	}
	for idx := 0; idx < len(w.entries); idx++ {
		e := w.entries[idx]
		if e.issued {
			continue
		}
		if w.inflight >= limit {
			return
		}
		if e.release {
			if idx != 0 || w.inflight > 0 {
				return // earlier writes must retire first
			}
			if w.n.cfg.Model != config.PC && w.n.pendingAcks > 0 {
				if !w.releaseArmed {
					w.releaseArmed = true
					w.n.onAllAcked(w)
				}
				return
			}
		}
		e.issued = true
		w.inflight++
		// Hand the entry's span to the ownership transaction it creates
		// (created synchronously inside the call) so the miss path traces
		// as part of the buffered write, then withdraw the offer.
		w.n.spanAdopt = e.span
		w.n.AcquireOwnership(e.addr, e)
		w.n.spanAdopt = nil
	}
}

// retire removes a completed entry, notifies its writers, frees space and
// continues draining.
func (w *writeBuffer) retire(e *wbEntry) {
	w.inflight--
	for i, x := range w.entries {
		if x == e {
			w.entries = append(w.entries[:i], w.entries[i+1:]...)
			if w.n.chk != nil {
				w.n.chk.WBRetire(w.n.id, i)
			}
			break
		}
	}
	if w.n.rec != nil {
		w.n.rec.WBDepth(w.n.id, len(w.entries))
	}
	// The release notification and retire completions may enqueue new
	// writes; the entry is unlinked already and recycled only after they
	// run.
	if e.rel != nil {
		e.rel.ReleaseRetired()
	}
	for i := 0; i < len(e.onRetire); i++ {
		e.onRetire[i].Act()
	}
	e.onRetire = e.onRetire[:0]
	e.rel = nil
	e.span.End()
	e.span = nil
	w.n.sh.wbEntries.Put(e)
	if len(w.spaceWaiters) > 0 {
		// Dequeue in place, so WBOnSpace keeps reusing the same storage.
		done := w.spaceWaiters[0]
		w.spaceWaiters = w.spaceWaiters[:copy(w.spaceWaiters, w.spaceWaiters[1:])]
		done.Act()
	}
	if len(w.entries) == 0 && w.inflight == 0 && len(w.drainWaiters) > 0 {
		ws := w.drainWaiters
		w.drainWaiters = nil
		for _, done := range ws {
			w.n.onAllAcked(done)
		}
	}
	w.drain()
}

// pfEntry is one software prefetch waiting in the prefetch buffer.
type pfEntry struct {
	addr mem.Addr
	excl bool
}

// prefetchBuffer is the 16-entry prefetch buffer, separate from the write
// buffer so prefetches are not delayed behind writes (Section 5.1). The
// head entry checks the secondary cache; if the line is already present
// (or a transaction for it is in flight) the prefetch is discarded,
// otherwise it issues onto the bus like a normal request. The buffer is a
// sim.Actor stepping through pop/check stages for its head entry.
type prefetchBuffer struct {
	n            *Node
	queue        []pfEntry
	draining     bool
	cur          pfEntry
	stage        pfStage
	spaceWaiters []sim.Actor
}

// pfStage is the prefetch buffer's next step when its event fires.
type pfStage uint8

const (
	pfPop   pfStage = iota // pop the head entry and start its cache check
	pfCheck                // check done: discard or issue
)

func newPrefetchBuffer(n *Node) *prefetchBuffer { return &prefetchBuffer{n: n} }

// PFEnqueue adds a prefetch request; returns false if the buffer is full
// (the processor stalls — accounted as prefetch overhead). Without
// coherent caches there is nowhere to prefetch into, so the request is
// discarded.
func (n *Node) PFEnqueue(a mem.Addr, excl bool) bool {
	if !n.cfg.CacheShared {
		n.st.PrefetchUseless++
		return true
	}
	return n.pf.enqueue(a, excl)
}

// PFOnSpace registers done to run when a prefetch-buffer slot frees.
func (n *Node) PFOnSpace(done sim.Actor) {
	n.pf.spaceWaiters = append(n.pf.spaceWaiters, done)
}

func (p *prefetchBuffer) enqueue(a mem.Addr, excl bool) bool {
	if len(p.queue) >= p.n.cfg.PrefetchBufferDepth {
		return false
	}
	p.queue = append(p.queue, pfEntry{addr: a, excl: excl})
	if !p.draining {
		p.draining = true
		p.stage = pfPop
		p.n.k.AfterActor(0, p)
	}
	return true
}

// Act implements sim.Actor.
func (p *prefetchBuffer) Act() {
	if p.stage == pfPop {
		p.step()
		return
	}
	p.process()
}

// step pops the head entry and starts its secondary-cache check; the next
// entry follows after the check time.
func (p *prefetchBuffer) step() {
	if len(p.queue) == 0 {
		p.draining = false
		return
	}
	// Dequeue in place (at most PrefetchBufferDepth entries shift), so
	// enqueue and PFOnSpace keep reusing the same storage.
	p.cur = p.queue[0]
	p.queue = p.queue[:copy(p.queue, p.queue[1:])]
	if len(p.spaceWaiters) > 0 {
		done := p.spaceWaiters[0]
		p.spaceWaiters = p.spaceWaiters[:copy(p.spaceWaiters, p.spaceWaiters[1:])]
		done.Act()
	}
	p.stage = pfCheck
	p.n.k.AfterActor(sim.Time(p.n.lat().SecCheckWrite), p)
}

// process finishes the head entry's check: a discard if the line is
// already present (or being fetched or evicted), a bus issue otherwise.
func (p *prefetchBuffer) process() {
	n := p.n
	e := p.cur
	l := mem.LineOf(e.addr)
	st := n.sec.State(l)
	useless := n.mshrs.get(l) != nil || n.victims.get(l) != nil || st == Dirty || (st == Shared && !e.excl)
	if useless {
		n.st.PrefetchUseless++
	} else {
		kind := mshrPrefetch
		if e.excl {
			kind = mshrPrefetchExcl
		}
		m := n.newMSHR(e.addr, kind, e.excl)
		n.mshrs.put(l, m)
		m.issue()
	}
	p.stage = pfPop
	p.step()
}
