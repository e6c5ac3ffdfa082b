// Package api holds the sweep service's wire types: the sweep
// submission document clients POST and the status/stats documents the
// service returns. It is a leaf package — the CLI client, tests and the
// service share these structs without dragging the scheduler in — and
// it is listed in the simdet analyzer's packages: everything here must
// stay deterministic (no wall clock, no global rand, no map ranges), so
// identical sweep documents always serialize identically.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// SweepSpec is the body of POST /v1/sweeps: either a named experiment
// (every cmd/figures id, plus "twin-sweep") or an explicit job list.
type SweepSpec struct {
	// Name is an optional client label echoed in statuses.
	Name string `json:"name,omitempty"`
	// Experiment names a canned experiment. Its rendered result is
	// byte-identical to the cmd/figures output for the same id.
	// Mutually exclusive with Jobs.
	Experiment string `json:"experiment,omitempty"`
	// Scale selects the data-set scale ("small" when empty, "paper").
	Scale string `json:"scale,omitempty"`
	// Seed overrides the benchmarks' workload seeds (0 = paper seeds).
	Seed int64 `json:"seed,omitempty"`
	// Obs records observability data on every job; the sweep's merged
	// report is served at /v1/sweeps/{id}/report and its dashboard pane
	// at /v1/sweeps/{id}/obs.
	Obs bool `json:"obs,omitempty"`
	// SpanRate tunes the obs span-tracing sample rate in (0, 1] for this
	// sweep's jobs (0 = the service default). Requires Obs; sweeps that
	// agree on the effective rate share sessions and dedup, sweeps that
	// differ cache separately (the rate changes what a run records).
	SpanRate float64 `json:"span_rate,omitempty"`
	// Check runs every job under the runtime coherence invariant
	// checker.
	Check bool `json:"check,omitempty"`
	// Jobs is an explicit (application, configuration) list. Mutually
	// exclusive with Experiment.
	Jobs []JobSpec `json:"jobs,omitempty"`
}

// JobSpec is one explicit simulation request.
type JobSpec struct {
	// App is the benchmark name (MP3D, LU, PTHOR).
	App string `json:"app"`
	// Config is a partial machine configuration overlaid on the
	// defaults (config.Overlay): omitted fields keep their defaults,
	// unknown fields are rejected, and enum fields accept names
	// ("Model": "RC", "DirOrg": "limited-pointer").
	Config json.RawMessage `json:"config,omitempty"`
}

// ParseSpec strictly decodes a sweep submission: unknown fields and
// trailing data are errors (a mistyped field must not silently become a
// default), and the structural invariants are checked here so every
// front end rejects the same garbage the same way. Configuration
// contents are validated later, against config.Overlay.
func ParseSpec(raw []byte) (*SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var spec SweepSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("sweep spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sweep spec: trailing data after document")
	}
	if spec.Experiment == "" && len(spec.Jobs) == 0 {
		return nil, fmt.Errorf("sweep spec: need an experiment name or a job list")
	}
	if spec.Experiment != "" && len(spec.Jobs) > 0 {
		return nil, fmt.Errorf("sweep spec: experiment and jobs are mutually exclusive")
	}
	if spec.SpanRate != 0 && !spec.Obs {
		return nil, fmt.Errorf("sweep spec: span_rate requires obs")
	}
	for i, j := range spec.Jobs {
		if j.App == "" {
			return nil, fmt.Errorf("sweep spec: job %d: missing app", i)
		}
	}
	return &spec, nil
}

// Sweep states. A sweep runs from the moment it is accepted; it is
// terminal in StateDone, StateFailed and StateCanceled.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job states within a sweep. A pending job is queued in the engine or
// executing.
const (
	JobPending  = "pending"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled" // its sweep was canceled before the job finished
)

// JobStatus is one job's progress within a sweep.
type JobStatus struct {
	// Key is the job's content hash — identical submissions, in this
	// sweep or any other, share it (and share one execution).
	Key    string `json:"key"`
	App    string `json:"app"`
	Config string `json:"config"` // configuration display name
	State  string `json:"state"`
	// FromCache reports a persistent-cache hit (valid once done).
	FromCache bool `json:"from_cache,omitempty"`
	// ElapsedCycles is the simulated run length (valid once done).
	ElapsedCycles uint64 `json:"elapsed_cycles,omitempty"`
	// Error is the job's final error (failed jobs only).
	Error string `json:"error,omitempty"`
}

// SweepStatus is the GET /v1/sweeps/{id} document.
type SweepStatus struct {
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	State      string `json:"state"`
	Experiment string `json:"experiment,omitempty"`
	Scale      string `json:"scale"`
	// Created/Started/Finished are RFC 3339 timestamps ("" if the
	// phase has not been reached). A sweep starts when it is accepted,
	// so Started equals Created.
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Error is the sweep-level failure reason (failed sweeps only).
	Error string `json:"error,omitempty"`
	// Jobs has one entry per tracked job, in submission order.
	Jobs []JobStatus `json:"jobs"`
	// Done counts terminal jobs; Total is len(Jobs). A render-only
	// sweep (an experiment whose jobs are not known ahead of render
	// time) has Total == 0 and is finished when State says so.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// SweepSummary is one row of the GET /v1/sweeps listing.
type SweepSummary struct {
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	State      string `json:"state"`
	Experiment string `json:"experiment,omitempty"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Created    string `json:"created"`
}

// SweepList is the GET /v1/sweeps document.
type SweepList struct {
	Sweeps []SweepSummary `json:"sweeps"`
}

// Created is the POST /v1/sweeps response.
type Created struct {
	ID string `json:"id"`
}

// Stats is the GET /v1/stats document: the engine's counters and queue
// state plus the service's sweep counts.
type Stats struct {
	// Engine counters (cumulative since the service started).
	Submitted uint64 `json:"submitted"`
	Deduped   uint64 `json:"deduped"`
	Executed  uint64 `json:"executed"`
	CacheHits uint64 `json:"cache_hits"`
	Failed    uint64 `json:"failed"`
	// Cache state (0 when the persistent cache is disabled).
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	// Engine queue state: jobs waiting for a worker and executing.
	QueuedJobs   int `json:"queued_jobs"`
	InflightJobs int `json:"inflight_jobs"`
	// Sweep counts by state.
	Sweeps map[string]int `json:"sweeps"`
}

// ObsDoc is the GET /v1/sweeps/{id}/obs document: everything the
// dashboard's observability pane draws — the sweep's merged
// execution-time breakdown, critical-path stall waterfall and latency
// statistics — flattened to plain types so the page renders it without
// knowing the obs package's internals.
type ObsDoc struct {
	ID string `json:"id"`
	// Runs counts the jobs that carried an obs report; Elapsed sums
	// their simulated cycles.
	Runs    int    `json:"runs"`
	Elapsed uint64 `json:"elapsed"`
	// Buckets is the merged execution-time breakdown; Points is the
	// bucket's share of the summed elapsed cycles, x100.
	Buckets []ObsBucket `json:"buckets,omitempty"`
	// Stalls is the merged critical-path waterfall.
	Stalls []ObsStall `json:"stalls,omitempty"`
	// Hists summarizes the merged operation-latency histograms.
	Hists []ObsHist `json:"hists,omitempty"`
}

// ObsBucket is one execution-time bucket of the merged breakdown.
type ObsBucket struct {
	Name   string  `json:"name"`
	Cycles uint64  `json:"cycles"`
	Points float64 `json:"points"`
}

// ObsStall is one stall bucket of the merged waterfall.
type ObsStall struct {
	Bucket      string       `json:"bucket"`
	StallCycles uint64       `json:"stall_cycles"`
	Dominant    string       `json:"dominant,omitempty"`
	Segments    []ObsSegment `json:"segments,omitempty"`
}

// ObsSegment is one latency source's attributed share of a stall bucket.
type ObsSegment struct {
	Kind       string `json:"kind"`
	Attributed uint64 `json:"attributed"`
}

// ObsHist is one merged latency histogram's summary statistics.
type ObsHist struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Error is the JSON error envelope every non-2xx response carries.
type Error struct {
	Error string `json:"error"`
}
