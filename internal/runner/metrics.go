package runner

import (
	"fmt"
	"time"
)

// Metrics is a snapshot of the runner's progress counters. All fields
// count jobs except SimCycles (total simulated cycles of executed jobs)
// and WallTime (summed wall-clock execution time, which exceeds elapsed
// time when workers run in parallel).
type Metrics struct {
	Submitted int64 // Submit calls, including duplicates
	Deduped   int64 // submissions coalesced onto an existing task
	Queued    int64 // waiting for a worker
	Running   int64 // currently executing
	Executed  int64 // simulated to completion
	CacheHits int64 // satisfied from the persistent cache
	// CacheMisses counts persistent-cache probes that found no entry
	// (always 0 without a cache directory). Together with CacheHits and
	// Deduped it tells a sweep exactly what was recomputed.
	CacheMisses int64
	Failed      int64 // returned an error, panicked, or timed out
	SimCycles   uint64
	WallTime    time.Duration

	// Kernel-level counters summed over executed (non-cached) jobs.
	SimEvents uint64 // discrete events fired
}

// Done is the number of jobs that have finished one way or another.
func (m Metrics) Done() int64 { return m.Executed + m.CacheHits + m.Failed }

// String renders the one-line progress summary streamed to Trace.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"jobs: %d submitted (%d deduped), %d queued, %d running, %d simulated, %d cache hits, %d cache misses, %d failed; %d sim cycles, %d events in %v",
		m.Submitted, m.Deduped, m.Queued, m.Running, m.Executed,
		m.CacheHits, m.CacheMisses, m.Failed, m.SimCycles, m.SimEvents,
		m.WallTime.Round(time.Millisecond))
}

// CacheString renders the cache-effectiveness digest printed per
// experiment by cmd/figures -v.
func (m Metrics) CacheString() string {
	return fmt.Sprintf("cache: %d hits, %d misses, %d deduped, %d simulated",
		m.CacheHits, m.CacheMisses, m.Deduped, m.Executed)
}
