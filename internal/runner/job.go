// Package runner is the parallel experiment-execution engine. The
// paper's evaluation is a matrix of independent, deterministic
// simulations; this package turns each of them into a Job with a
// canonical content hash and executes them on a worker pool with
// singleflight deduplication, per-job panic recovery, wall-clock
// timeouts, context cancellation, and an optional persistent on-disk
// result cache so regenerating figures over unchanged configurations is
// near-instant.
//
// The runner is deliberately ignorant of what a job *means*: execution
// is delegated to an ExecFunc supplied by the caller (internal/core
// wires it to the machine simulator), which keeps the dependency arrow
// pointing from the harness to the engine and not back.
package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"latsim/internal/config"
	"latsim/internal/obs"
)

// SchemaVersion is baked into every job hash and persisted cache entry.
// Bump it whenever the simulator's timing semantics or the Result schema
// change, so stale on-disk results are invalidated wholesale instead of
// silently reused. TestSchemaVersionsCoverShapes fails when a serialized
// shape changes without a bump.
//
// v3: machine.Result carries an optional obs.Report; Job gained the Obs
// and Trace fields.
//
// v4: the report carries transaction spans and the critical-path
// waterfall (obs.ReportSchema moves in lockstep).
//
// v5: Job gained the Check field (runtime coherence invariant checker)
// and machine.Result the InvariantChecks counter.
//
// v6: stats.Proc carries write-run-length accounting (WriteRuns,
// WriteRunSum, WriteRunMax, WriteRunHist), read by the analytical twin's
// workload characterization.
//
// v7: representation-agnostic directories — Config gained
// DirOrg/DirPointers/DirCoarseness, stats.Proc the
// InvalsSent/DirOverflows/SpuriousInvals counters, and the obs report
// the overflow/spurious_inval DirTxn kinds (obs.ReportSchema 5).
//
// v8: sim.Stats (machine.Result.Kernel) dropped the Actor counter, which
// always equals Scheduled now that every event is an Actor.
//
// v9: Job dropped the Trace field: a trace replay is not a runner job.
//
// v10: obs.Options dropped MaxSegments and MaxSpans: the recorder's caps
// are the constants obs.DefaultMaxSegments and span.DefaultMaxRecs.
const SchemaVersion = 10

// Job names one deterministic simulation: an application, a data-set
// scale, an optional workload seed override (0 keeps the paper's seeds),
// and a full machine configuration. Two Jobs with equal fields are the
// same experiment and share one execution and one cache entry.
//
// Obs, when set, makes the execution record observability data into the
// result; it participates in the hash because an obs-enabled result
// carries a (potentially large) report a plain run does not.
type Job struct {
	App   string       `json:"app"`
	Scale string       `json:"scale,omitempty"`
	Seed  int64        `json:"seed,omitempty"`
	Obs   *obs.Options `json:"obs,omitempty"`
	// Check runs the job under the coherence invariant checker. The
	// simulated timing is identical either way (zero-perturbation
	// contract), but a checked result attests the run passed, so it
	// hashes — and caches — separately.
	Check bool          `json:"check,omitempty"`
	Cfg   config.Config `json:"cfg"`
}

// Key returns the job's canonical content hash: SHA-256 over the
// schema-versioned JSON encoding of the job. encoding/json emits struct
// fields in declaration order and config.Config is a flat value type, so
// the encoding — and therefore the key — is deterministic.
func (j Job) Key() string {
	b, err := json.Marshal(struct {
		Schema int `json:"schema"`
		Job    Job `json:"job"`
	}{SchemaVersion, j})
	if err != nil {
		// Config and Job are plain value types; this cannot fail.
		panic(fmt.Sprintf("runner: job not serializable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// String labels the job in progress traces and errors.
func (j Job) String() string {
	s := fmt.Sprintf("%s on %s", j.App, j.Cfg.Name())
	if j.Scale != "" {
		s += " (" + j.Scale + " scale)"
	}
	return s
}
