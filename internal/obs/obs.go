// Package obs is the deep-observability subsystem: when enabled it
// records per-interval time series (execution-time buckets, write-buffer
// depth, directory traffic, mesh link occupancy, kernel event rate),
// log-bucketed latency histograms for individual memory and
// synchronization operations, and per-processor bucket timelines
// exportable as a Chrome trace_event file loadable in Perfetto.
//
// The subsystem is strictly observational and zero-overhead when
// disabled: model code holds a plain *Recorder pointer and guards every
// hook with a nil check (never an interface dispatch), and the Recorder
// schedules no kernel events — intervals are closed lazily as hooks
// arrive, so enabling observability changes neither the simulated timing
// nor the event count of a run. See DESIGN.md ("Observability hook-point
// contract") for the rules hook sites must follow.
package obs

import (
	"latsim/internal/obs/span"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// DefaultInterval is the sampling interval, in simulated cycles, used
// when Options.Interval is zero.
const DefaultInterval = 1024

// DefaultSpanRate is the span-tracing sample rate, one transaction in 64,
// that the CLIs use when span tracing is asked for without a rate. The zero Options.SpanRate disables span tracing.
const DefaultSpanRate = 1.0 / 64

// DefaultMaxSegments bounds the per-run bucket-timeline storage (summed
// over processors). Beyond the cap the time series and histograms keep
// recording; only the per-processor timeline stops growing, and the
// report carries the dropped count so the truncation is never silent.
// Stored span records are capped likewise, at span.DefaultMaxRecs.
const DefaultMaxSegments = 1 << 18

// Options configure a Recorder. The zero value uses the defaults above.
// Options are part of the runner's job hash, so two runs of the same
// configuration with different sampling options cache independently.
type Options struct {
	// Interval is the time-series sampling interval in cycles.
	Interval uint64 `json:"interval,omitempty"`
	// SpanRate enables transaction-level span tracing, sampling roughly
	// this fraction of transactions (1 traces everything, 0 disables —
	// the default). See internal/obs/span.
	SpanRate float64 `json:"span_rate,omitempty"`
}

// Class identifies the operation kind of a latency observation.
type Class uint8

const (
	// ReadMiss is a demand read serviced beyond the secondary cache
	// (including the uncached-shared-data mode's direct memory reads).
	ReadMiss Class = iota
	// WriteMiss is an ownership acquisition that left the secondary
	// cache (a write or upgrade transaction).
	WriteMiss
	// PrefetchFill is a software prefetch that issued a protocol
	// transaction (useless prefetches are discarded before issue).
	PrefetchFill
	// SyncOp is a blocking synchronization operation measured from the
	// processor blocking to its wakeup (lock acquire/release under SC
	// and WC, barrier wait).
	SyncOp

	NumClasses
)

var classNames = [NumClasses]string{"read_miss", "write_miss", "prefetch", "sync"}

// String returns the class name used in reports.
func (c Class) String() string {
	if c >= NumClasses {
		return "class?"
	}
	return classNames[c]
}

// DirKind identifies a directory-controller transaction kind.
type DirKind uint8

const (
	// DirRead is a read request processed at a home directory.
	DirRead DirKind = iota
	// DirWrite is an ownership request processed at a home directory.
	DirWrite
	// DirInval is one invalidation sent to a sharer.
	DirInval
	// DirForward is a request forwarded to (and served by) a dirty
	// remote owner.
	DirForward
	// DirWriteback is a dirty-victim writeback processed at the home.
	DirWriteback
	// DirOverflow is a limited-pointer directory entry tipping into
	// broadcast mode (a Dir_i B overflow at the home).
	DirOverflow
	// DirSpurious is an invalidation that reached a node holding no copy
	// of the line — the cost of imprecise sharer tracking (and of stale
	// entries after silent eviction).
	DirSpurious

	NumDirKinds
)

var dirKindNames = [NumDirKinds]string{"read", "write", "inval", "forward", "writeback", "overflow", "spurious_inval"}

// String returns the directory-transaction kind name used in reports.
func (d DirKind) String() string {
	if d >= NumDirKinds {
		return "dir?"
	}
	return dirKindNames[d]
}

// Segment is one per-processor bucket-timeline entry: [bucket, start,
// duration], all in cycles. Encoded as a bare triple to keep exported
// reports compact.
type Segment [3]uint64

// Recorder accumulates observations for one machine run. It is not
// thread-safe; like the rest of the model it relies on the kernel's
// single-threaded discipline. Build one with NewRecorder, install it via
// the model's SetObs hooks (machine.Machine.EnableObs does all of this),
// and call Finish once the run completes.
type Recorder struct {
	k        *sim.Kernel
	interval uint64

	// Per-processor bucket timeline. cursors[p] is the next unaccounted
	// cycle of processor p: every Account call covers [cursor, cursor+d)
	// because the processor model attributes every cycle to exactly one
	// bucket, in causal order.
	cursors []uint64
	segs    [][]Segment
	nsegs   int
	dropped uint64

	// Per-interval series, grown lazily to now/interval+1.
	bucketCycles [stats.NumBuckets][]uint64
	wbDepthMax   []uint32
	switches     []uint32
	dirTxns      [NumDirKinds][]uint32
	meshHops     []uint32
	kernelCum    []uint64 // cumulative kernel events, last hook in interval wins
	anyMesh      bool

	meshLinks map[[2]int]uint64

	hists [NumClasses][2]Hist // [class][0=local 1=remote]

	// Spans is the transaction-level tracer, nil unless Options.SpanRate
	// is set. Model code threads the possibly-nil pointer through its
	// transactions; every tracer method is nil-safe.
	Spans *span.Tracer
}

// NewRecorder builds a recorder for a machine with nprocs processors
// driven by kernel k.
func NewRecorder(k *sim.Kernel, nprocs int, opts Options) *Recorder {
	r := &Recorder{
		k:        k,
		interval: opts.Interval,
		cursors:  make([]uint64, nprocs),
		segs:     make([][]Segment, nprocs),
		// Allocated here, not lazily in MeshHop: hook methods must not
		// allocate on the hot path (hookpure), and the report renders
		// from anyMesh, so an empty map never leaks into the output.
		meshLinks: make(map[[2]int]uint64),
	}
	if r.interval == 0 {
		r.interval = DefaultInterval
	}
	r.Spans = span.NewTracer(k, opts.SpanRate, span.DefaultMaxRecs)
	return r
}

// Interval returns the effective sampling interval in cycles.
func (r *Recorder) Interval() uint64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// idx returns the interval index containing cycle t, growing the series
// storage to cover it and sampling the kernel's event counter.
func (r *Recorder) idx(t uint64) int {
	i := int(t / r.interval)
	if i >= len(r.kernelCum) {
		n := i + 1
		for b := range r.bucketCycles {
			r.bucketCycles[b] = growTo(r.bucketCycles[b], n)
		}
		r.wbDepthMax = growTo(r.wbDepthMax, n)
		r.switches = growTo(r.switches, n)
		for d := range r.dirTxns {
			r.dirTxns[d] = growTo(r.dirTxns[d], n)
		}
		r.meshHops = growTo(r.meshHops, n)
		r.kernelCum = growTo(r.kernelCum, n)
	}
	r.kernelCum[i] = r.k.Events()
	return i
}

// growTo pads s with zeros to length n.
func growTo[T uint32 | uint64](s []T, n int) []T {
	for len(s) < n {
		//hookpure:alloc amortized: series grow to the run's final interval count, then stabilize
		s = append(s, 0)
	}
	return s
}

// Account attributes d cycles of processor proc to bucket b. Called from
// the processor's single accounting chokepoint, so per processor the
// accounted intervals tile the run exactly.
func (r *Recorder) Account(proc int, b stats.Bucket, d sim.Time) {
	if r == nil {
		return
	}
	if d == 0 {
		return
	}
	start := r.cursors[proc]
	dur := uint64(d)
	r.cursors[proc] = start + dur

	// Spread the accounted span across the interval grid.
	for rem, t := dur, start; rem > 0; {
		i := r.idx(t)
		span := (uint64(i)+1)*r.interval - t
		if span > rem {
			span = rem
		}
		r.bucketCycles[b][i] += span
		t += span
		rem -= span
	}

	// Append to the per-processor timeline, merging contiguous segments
	// of the same bucket.
	if r.nsegs >= DefaultMaxSegments {
		r.dropped++
		return
	}
	segs := r.segs[proc]
	if n := len(segs); n > 0 {
		last := &segs[n-1]
		if stats.Bucket(last[0]) == b && last[1]+last[2] == start {
			last[2] += dur
			return
		}
	}
	//hookpure:alloc per-processor timeline growth, hard-capped by DefaultMaxSegments
	r.segs[proc] = append(segs, Segment{uint64(b), start, dur})
	r.nsegs++
}

// Switch records one context switch on processor proc.
func (r *Recorder) Switch(proc int) {
	if r == nil {
		return
	}
	r.switches[r.idx(uint64(r.k.Now()))]++
}

// WBDepth records the write-buffer depth of a node after an enqueue or
// retire; the series keeps the per-interval maximum (buffer pressure).
func (r *Recorder) WBDepth(node, depth int) {
	if r == nil {
		return
	}
	i := r.idx(uint64(r.k.Now()))
	if uint32(depth) > r.wbDepthMax[i] {
		r.wbDepthMax[i] = uint32(depth)
	}
}

// DirTxn records one directory transaction of kind d.
func (r *Recorder) DirTxn(d DirKind) {
	if r == nil {
		return
	}
	r.dirTxns[d][r.idx(uint64(r.k.Now()))]++
}

// MeshHop records one message hop over the directed mesh link from->to.
func (r *Recorder) MeshHop(from, to int) {
	if r == nil {
		return
	}
	r.anyMesh = true
	r.meshHops[r.idx(uint64(r.k.Now()))]++
	r.meshLinks[[2]int{from, to}]++
}

// Miss records the end-to-end latency of one completed operation.
func (r *Recorder) Miss(c Class, local bool, latency sim.Time) {
	if r == nil {
		return
	}
	li := 1
	if local {
		li = 0
	}
	r.hists[c][li].Observe(uint64(latency))
}
