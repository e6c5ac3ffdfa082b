// Package stats accumulates per-processor execution-time breakdowns and
// event counts. The buckets mirror the sections of the stacked bars in the
// paper's figures: busy, read stall, write stall, synchronization stall,
// prefetch overhead (Figure 4), and — for multiple-context processors —
// switching, no-switch idle, and all-idle time (Figures 5 and 6).
package stats

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"latsim/internal/sim"
)

// Bucket identifies one component of execution time. A processor is in
// exactly one bucket at every cycle, so the buckets sum to elapsed time.
type Bucket int

const (
	// Busy is useful instruction execution, including the issue cycle of
	// loads and stores and (per the paper's PTHOR note) software spinning
	// on application data structures such as task queues.
	Busy Bucket = iota
	// PrefetchOverhead covers extra instructions executed to issue
	// prefetches, stalls on a full prefetch buffer, and stalls while the
	// primary cache is busy with a prefetch fill.
	PrefetchOverhead
	// ReadStall is processor idle time waiting for read completion.
	ReadStall
	// WriteStall is idle time waiting for writes to complete (SC write
	// stalls, write-buffer-full stalls under RC).
	WriteStall
	// SyncStall is idle time in lock acquires/releases and barriers.
	SyncStall
	// Switching is context-switch overhead cycles (multiple contexts).
	Switching
	// NoSwitchIdle is idle time where the running context stalls but is
	// not switched out: short secondary-cache fills, SC secondary-owned
	// write hits, and primary-cache lockout during fills of other
	// contexts.
	NoSwitchIdle
	// AllIdle is time when every hardware context is blocked.
	AllIdle

	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"busy", "pf_overhead", "read", "write", "sync",
	"switching", "no_switch", "all_idle",
}

// String returns the short bucket name used in reports.
func (b Bucket) String() string {
	if b < 0 || b >= NumBuckets {
		return fmt.Sprintf("bucket(%d)", int(b))
	}
	return bucketNames[b]
}

// maxRunLength bounds the run-length histogram; longer runs count as
// runs of maxRunLength.
const maxRunLength = 4096

// denseRuns splits the run-length histogram in two. Runs shorter than it
// are counted in a dense array. Longer runs are rare (0.23% of the runs
// of figures -exp all, 0.03% at paper scale) and take few distinct
// lengths (at most 296 on one processor), so they are kept as (length,
// count) pairs sorted by length. Together the two parts hold what a dense
// array of maxRunLength+1 counts would, in a fraction of the bytes.
const denseRuns = 256

// longRun counts the runs recorded at one length of at least denseRuns.
type longRun struct {
	length, count uint32
}

// Proc accumulates statistics for one processor.
type Proc struct {
	Time [NumBuckets]sim.Time

	// Reference counts (shared data only, like the paper). The hit
	// fields count program references classified at issue time; the
	// miss fields count protocol transactions (including those issued
	// by synchronization and prefetches).
	SharedReads     uint64
	SharedWrites    uint64
	ReadPrimaryHit  uint64
	ReadSecHit      uint64
	WriteHits       uint64 // program writes that found the line owned
	WriteLocal      uint64 // program write misses whose home is the local node
	ReadMisses      uint64 // read transactions that left the secondary cache
	WriteOwnedHit   uint64 // ownership requests satisfied by the secondary
	WriteMisses     uint64 // ownership transactions sent to a directory
	Prefetches      uint64 // issued by the program
	PrefetchUseless uint64 // discarded: line already present / in flight
	PrefetchLate    uint64 // demand reference merged with in-flight prefetch
	Locks           uint64
	Barriers        uint64
	Switches        uint64

	// Directory-organization accounting (DESIGN.md §4e). InvalsSent and
	// DirOverflows count at the home node's directory; SpuriousInvals
	// counts at the node that received an invalidation for a line it no
	// longer (or never) cached — the precision-loss tax of imprecise
	// sharer representations and of silent Shared-victim eviction.
	InvalsSent     uint64 // invalidations fanned out by this node's directory
	DirOverflows   uint64 // limited-pointer entries tipped into broadcast mode
	SpuriousInvals uint64 // invalidations applied here that found no copy

	// Latency accounting for average-miss-latency reports.
	ReadMissCycles sim.Time

	// Write-run accounting: a write run is a maximal sequence of shared
	// writes issued without an intervening shared read or
	// synchronization operation (program order, computation between the
	// writes does not break the run). The run-length distribution drives
	// the analytical twin's write-buffer drain model: long runs are what
	// fill the buffer under the buffered consistency models.
	WriteRuns    uint64
	WriteRunSum  uint64
	WriteRunMax  uint32
	WriteRunHist [maxWriteRun + 1]uint32

	// The run-length histogram. The number of runs is the sum of its
	// counts, so recording a short run touches one word.
	runHist  [denseRuns]uint32 // runs shorter than denseRuns, by length
	longRuns []longRun         // longer runs, sorted by length
}

// maxWriteRun bounds the write-run-length histogram; longer runs land in
// the final bucket.
const maxWriteRun = 64

// RecordWriteRun records one closed write run of n consecutive writes.
func (p *Proc) RecordWriteRun(n uint32) {
	if n == 0 {
		return
	}
	p.WriteRuns++
	p.WriteRunSum += uint64(n)
	if n > p.WriteRunMax {
		p.WriteRunMax = n
	}
	if n > maxWriteRun {
		n = maxWriteRun
	}
	p.WriteRunHist[n]++
}

// MeanWriteRun returns the mean write-run length (0 with no runs).
func (p *Proc) MeanWriteRun() float64 {
	if p.WriteRuns == 0 {
		return 0
	}
	return float64(p.WriteRunSum) / float64(p.WriteRuns)
}

// WriteRunQuantile returns the q-quantile (0 <= q <= 1) of the recorded
// write-run lengths, or 0 if none were recorded.
func (p *Proc) WriteRunQuantile(q float64) uint32 {
	if p.WriteRuns == 0 {
		return 0
	}
	rank := quantileRank(q, p.WriteRuns)
	var seen uint64
	for l, c := range p.WriteRunHist {
		seen += uint64(c)
		if seen >= rank {
			return uint32(l)
		}
	}
	return maxWriteRun
}

// Add accrues d cycles to bucket b.
func (p *Proc) Add(b Bucket, d sim.Time) {
	p.Time[b] += d
}

// Total returns the sum of all buckets (== elapsed processor time).
func (p *Proc) Total() sim.Time {
	var t sim.Time
	for _, v := range p.Time {
		t += v
	}
	return t
}

// RecordRun records a run length: busy cycles executed between successive
// long-latency operations. The paper reports median run lengths per
// application (e.g. 11 cycles for MP3D under SC, 22 under RC).
//
// The short-run path must stay inlinable, and inlined into the
// processor's run accounting, so the long path is one call.
func (p *Proc) RecordRun(length sim.Time) {
	if length < denseRuns {
		p.runHist[length]++
	} else {
		p.addLongRuns(length, 1)
	}
}

// addLongRuns counts n more runs of a length of at least denseRuns,
// clamped to maxRunLength.
func (p *Proc) addLongRuns(length sim.Time, n uint32) {
	l := uint32(min(length, maxRunLength))
	i, found := slices.BinarySearchFunc(p.longRuns, l, func(r longRun, l uint32) int {
		return cmp.Compare(r.length, l)
	})
	if found {
		p.longRuns[i].count += n
	} else {
		p.longRuns = slices.Insert(p.longRuns, i, longRun{l, n})
	}
}

// eachRunLength calls f with every recorded run length and its count, in
// ascending order of length, skipping lengths with no runs.
func (p *Proc) eachRunLength(f func(length, count uint32) bool) {
	for l, c := range p.runHist {
		if c != 0 && !f(uint32(l), c) {
			return
		}
	}
	for _, r := range p.longRuns {
		if r.count != 0 && !f(r.length, r.count) {
			return
		}
	}
}

// numRuns returns the number of recorded runs.
func (p *Proc) numRuns() uint64 {
	var n uint64
	p.eachRunLength(func(_, c uint32) bool {
		n += uint64(c)
		return true
	})
	return n
}

// MeanRunLength returns the arithmetic mean of recorded run lengths.
func (p *Proc) MeanRunLength() float64 {
	var sum, n uint64
	p.eachRunLength(func(l, c uint32) bool {
		sum += uint64(l) * uint64(c)
		n += uint64(c)
		return true
	})
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MedianRunLength returns the median recorded run length, or 0 if no runs
// were recorded.
func (p *Proc) MedianRunLength() sim.Time {
	return p.RunLengthQuantile(0.5)
}

// RunLengthQuantile returns the q-quantile (0 <= q <= 1) of the recorded
// run lengths, or 0 if no runs were recorded. The median (q = 0.5)
// matches the paper's reported median run lengths; the analytical twin's
// characterization also samples the tail (q = 0.9).
func (p *Proc) RunLengthQuantile(q float64) sim.Time {
	n := p.numRuns()
	if n == 0 {
		return 0
	}
	rank := quantileRank(q, n)
	var seen uint64
	var out sim.Time
	p.eachRunLength(func(l, c uint32) bool {
		seen += uint64(c)
		if seen >= rank {
			out = sim.Time(l)
			return false
		}
		return true
	})
	return out
}

// quantileRank converts a quantile in [0, 1] to a 1-based rank among n
// observations, clamping out-of-range q. q = 0.5 gives the (n+1)/2 rank
// used by MedianRunLength.
func quantileRank(q float64, n uint64) uint64 {
	switch {
	case q <= 0:
		return 1
	case q >= 1:
		return n
	}
	r := uint64(q*float64(n) + 0.5)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Breakdown is an aggregated execution-time decomposition for a whole run.
type Breakdown struct {
	Time    [NumBuckets]sim.Time
	Elapsed sim.Time // wall-clock simulated cycles of the run
	Procs   int
}

// Aggregate sums per-processor stats into a machine-level breakdown.
// Each processor's timeline spans the whole run, so buckets are averaged
// per processor to keep Total == Elapsed.
func Aggregate(procs []*Proc, elapsed sim.Time) Breakdown {
	b := Breakdown{Elapsed: elapsed, Procs: len(procs)}
	for _, p := range procs {
		for i, v := range p.Time {
			b.Time[i] += v
		}
	}
	if len(procs) > 0 {
		for i := range b.Time {
			b.Time[i] /= sim.Time(len(procs))
		}
	}
	return b
}

// Total returns the sum over buckets of the averaged breakdown.
func (b Breakdown) Total() sim.Time {
	var t sim.Time
	for _, v := range b.Time {
		t += v
	}
	return t
}

// Normalized returns each bucket as a percentage of base (typically the
// total of a baseline run), matching the paper's normalized execution
// times.
func (b Breakdown) Normalized(base sim.Time) [NumBuckets]float64 {
	var out [NumBuckets]float64
	if base == 0 {
		return out
	}
	for i, v := range b.Time {
		out[i] = 100 * float64(v) / float64(base)
	}
	return out
}

// String renders the breakdown as a one-line summary.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total=%d", b.Total())
	for i := Bucket(0); i < NumBuckets; i++ {
		if b.Time[i] > 0 {
			fmt.Fprintf(&sb, " %s=%d", i, b.Time[i])
		}
	}
	return sb.String()
}
