// Package span is transaction-level tracing for the memory system: each
// sampled miss/prefetch/sync transaction carries a Span from issue to
// completion, opening a child record at every resource it crosses (write
// buffer, bus, network wire, mesh link, directory, remote owner,
// invalidation, reply, fill) so the finished trace reconstructs the
// causal chain with per-segment simulated-cycle durations.
//
// Like the rest of internal/obs the tracer is strictly observational:
// Span handles are pooled, every method is safe on a nil receiver (the
// disabled and the not-sampled case are both a nil *Span), no kernel
// events are scheduled, and record emission happens on segment close so
// the record order — and every assigned ID — is a deterministic function
// of the simulated event order.
package span

import "latsim/internal/sim"

// Kind identifies a span record: KTxn* kinds are transaction roots, the
// KSeg* kinds are the resources a transaction crosses.
type Kind uint8

const (
	// KTxnRead is a demand read miss (or secondary-to-primary fill).
	KTxnRead Kind = iota
	// KTxnWrite is an ownership acquisition draining from the write buffer.
	KTxnWrite
	// KTxnPrefetch is a software-prefetch fill.
	KTxnPrefetch
	// KTxnWriteback is a dirty-victim writeback (background traffic).
	KTxnWriteback
	// KTxnSync is a transaction issued on behalf of a synchronization
	// operation (lock, unlock, barrier, or their flag refetches).
	KTxnSync

	// KSegLookup is the secondary-cache lookup/check before issue.
	KSegLookup
	// KSegWB is residency in the write buffer before draining.
	KSegWB
	// KSegBus is local bus occupancy.
	KSegBus
	// KSegNet is a point-to-point network wire transfer.
	KSegNet
	// KSegLink is one wormhole-mesh link hop (child per link).
	KSegLink
	// KSegDir is home-directory occupancy.
	KSegDir
	// KSegOwner is the dirty remote owner's cache access.
	KSegOwner
	// KSegInval is one invalidation round trip to a sharer (child per
	// sharer; overlapping).
	KSegInval
	// KSegReply is the reply transfer back to the requester.
	KSegReply
	// KSegFill is the secondary/primary cache fill at the requester.
	KSegFill
	// KSegMem is a main-memory access (uncached mode).
	KSegMem

	NumKinds
)

var kindNames = [NumKinds]string{
	"read", "write", "prefetch", "writeback", "sync",
	"lookup", "wbuf", "bus", "net", "link", "dir", "owner", "inval",
	"reply", "fill", "mem",
}

// String returns the kind name used in traces and waterfalls.
func (k Kind) String() string {
	if k >= NumKinds {
		return "kind?"
	}
	return kindNames[k]
}

// Txn reports whether k is a transaction-root kind.
func (k Kind) Txn() bool { return k < KSegLookup }

// MarshalJSON encodes the kind as its name so exported traces are
// machine-readable without a legend.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind name (the runner's persistent cache
// re-serializes whole reports, so the encoding must round-trip).
func (k *Kind) UnmarshalJSON(b []byte) error {
	for i, n := range kindNames {
		if string(b) == `"`+n+`"` {
			*k = Kind(i)
			return nil
		}
	}
	*k = NumKinds
	return nil
}

// Rec is one finished span record. Roots (Kind.Txn()) cover a whole
// transaction; other records are segments or overlapping children and
// link to their transaction through Parent. All fields are integral so a
// trace round-trips exactly through JSON.
type Rec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Node   int    `json:"node"`
	Start  uint64 `json:"start"`
	Dur    uint64 `json:"dur"`
}

// Trace is the finished span set of one run.
type Trace struct {
	// Every is the sampling stride: transaction 1, 1+Every, ... carried
	// spans.
	Every uint64 `json:"every"`
	// Seen counts all transactions offered to the tracer; Sampled counts
	// those that carried a span.
	Seen    uint64 `json:"seen"`
	Sampled uint64 `json:"sampled"`
	// Dropped counts records discarded after the storage cap; nonzero
	// means the trace is truncated (never silently).
	Dropped uint64 `json:"dropped,omitempty"`
	Spans   []Rec  `json:"spans"`
}

// DefaultMaxRecs bounds stored records when NewTracer's maxRecs is zero.
const DefaultMaxRecs = 1 << 20

// Tracer hands out pooled Spans for a deterministic 1-in-N sample of
// transactions. All methods are safe on a nil *Tracer (tracing disabled).
type Tracer struct {
	k       *sim.Kernel
	every   uint64
	seen    uint64
	sampled uint64
	nextID  uint64
	max     int
	dropped uint64
	recs    []Rec
	pool    sim.Pool[Span]
}

// NewTracer builds a tracer sampling every round(1/rate)-th transaction
// (rate 1 samples everything; rate <= 0 returns nil = disabled).
func NewTracer(k *sim.Kernel, rate float64, maxRecs int) *Tracer {
	if rate <= 0 {
		return nil
	}
	every := uint64(1)
	if rate < 1 {
		every = uint64(1/rate + 0.5)
	}
	if maxRecs == 0 {
		maxRecs = DefaultMaxRecs
	}
	return &Tracer{k: k, every: every, max: maxRecs}
}

// Start opens a root span for a new transaction of the given kind issued
// by node, or returns nil when the transaction falls outside the sample
// (and always when t is nil).
func (t *Tracer) Start(kind Kind, node int) *Span {
	if t == nil {
		return nil
	}
	t.seen++
	if (t.seen-1)%t.every != 0 {
		return nil
	}
	t.sampled++
	return t.open(kind, node, 0)
}

// open builds a pooled span handle with a fresh ID.
func (t *Tracer) open(kind Kind, node int, parent uint64) *Span {
	t.nextID++
	s := t.pool.Get()
	*s = Span{t: t, id: t.nextID, parent: parent, kind: kind, node: node,
		start: uint64(t.k.Now())}
	return s
}

// emit appends a finished record, charging the storage cap.
func (t *Tracer) emit(r Rec) {
	if t.max > 0 && len(t.recs) >= t.max {
		t.dropped++
		return
	}
	//hookpure:alloc record buffer grows toward the maxRecs cap, then emit only drops
	t.recs = append(t.recs, r)
}

// Finish materializes the trace. Safe on nil (returns nil).
//
//hookpure:cold runs once, after the last simulated event
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{Every: t.every, Seen: t.seen, Sampled: t.sampled,
		Dropped: t.dropped, Spans: t.recs}
}

// Span is a live transaction (or child) being traced. The zero point of
// every duration is the simulated clock. A Span carries at most one open
// segment at a time; Seg closes the previous one, so sequential resource
// crossings need no per-segment handles. Overlapping work (invalidation
// fan-out, mesh link holds) uses Child. All methods are nil-safe: model
// code threads possibly-nil *Span values and never branches on them.
type Span struct {
	t        *Tracer
	id       uint64
	parent   uint64
	kind     Kind
	node     int
	start    uint64
	segKind  Kind
	segNode  int
	segStart uint64
	segOpen  bool
}

// Seg closes the open segment (if any) and opens a new one of the given
// kind at node, both at the current simulated time.
func (s *Span) Seg(kind Kind, node int) {
	if s == nil {
		return
	}
	now := uint64(s.t.k.Now())
	s.closeSeg(now)
	s.segKind, s.segNode, s.segStart, s.segOpen = kind, node, now, true
}

// closeSeg emits the open segment as a child record ending at now.
func (s *Span) closeSeg(now uint64) {
	if !s.segOpen {
		return
	}
	s.segOpen = false
	s.t.nextID++
	s.t.emit(Rec{ID: s.t.nextID, Parent: s.id, Kind: s.segKind,
		Node: s.segNode, Start: s.segStart, Dur: now - s.segStart})
}

// Child opens an overlapping child span (one invalidation, one mesh link
// hold) that ends independently of the parent's segment sequence.
func (s *Span) Child(kind Kind, node int) *Span {
	if s == nil {
		return nil
	}
	return s.t.open(kind, node, s.id)
}

// End closes the open segment, emits the span's own record, and recycles
// the handle. The Span must not be used afterwards.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := uint64(s.t.k.Now())
	s.closeSeg(now)
	s.t.emit(Rec{ID: s.id, Parent: s.parent, Kind: s.kind, Node: s.node,
		Start: s.start, Dur: now - s.start})
	t := s.t
	*s = Span{}
	t.pool.Put(s)
}
