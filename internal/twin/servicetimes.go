// Package twin is the analytical twin of the event-driven simulator: a
// closed-form queueing model that predicts the paper's normalized
// execution-time breakdowns in microseconds instead of seconds. The twin
// takes the same config.Config the simulator takes plus a per-application
// workload characterization extracted once from a handful of detailed
// reference runs (internal/twin: Characterize), and composes Table 1
// no-contention service times with M/D/1-style occupancy corrections,
// write-buffer drain models per consistency model, prefetch
// coverage/overhead terms and a multiple-context utilization model.
//
// The twin is a model of a model: its per-bucket error against the
// event-driven truth is continuously measured by the twin-validate
// experiment (internal/core) across the whole figure/table
// configuration matrix, and the error
// report is a first-class artifact (see DESIGN.md §S-twin for the error
// contract). Use the twin to explore thousands of configurations
// interactively; reserve the detailed simulator for verifying the
// frontier.
package twin

import (
	"fmt"

	"latsim/internal/config"
)

// ServiceTimes are the no-contention end-to-end latencies of every
// memory-operation class, in processor cycles including the 1-cycle
// issue. They are composed from the stage latencies exactly as
// internal/memsys composes them (see the table at the top of
// memsys/trans.go); for the default configuration they reproduce the
// paper's Table 1, which twin tests assert against core.Table1's
// measured probes.
type ServiceTimes struct {
	Hop float64 // one network hop: 2*NIHold + Wire (direct network)

	ReadPrimary float64 // hit in primary cache
	ReadSec     float64 // fill from secondary cache
	ReadLocal   float64 // fill from local node
	ReadHome    float64 // fill from remote home node
	ReadDirty   float64 // fill forwarded by a remote dirty owner

	WriteOwned float64 // owned by secondary cache
	WriteLocal float64 // ownership from the local node
	WriteHome  float64 // ownership from a remote home node
	WriteDirty float64 // ownership forwarded by a remote dirty owner

	// Uncached shared-data operations (Figure 2 "no cache" mode).
	UncReadLocal   float64
	UncReadRemote  float64
	UncWriteLocal  float64
	UncWriteRemote float64
}

// Compose builds the no-contention service times for a configuration.
// With the mesh interconnect the fixed hop is replaced by the average
// dimension-ordered route on the w x w mesh (an approximation: the
// detailed simulator routes every message individually).
func Compose(cfg *config.Config) ServiceTimes {
	l := cfg.Lat
	hop := float64(2*l.NIHold + l.Wire)
	if cfg.MeshNetwork {
		hop = float64(2*l.NIHold) + meshAvgDistance(cfg.Procs)*float64(cfg.MeshHopCycles)
	}
	var s ServiceTimes
	s.Hop = hop
	s.ReadPrimary = 1
	s.ReadSec = 1 + float64(l.SecLookup+l.FillPrim)
	s.ReadLocal = s.ReadSec + float64(l.BusHold+l.MemHold+l.FillSec)
	s.ReadHome = s.ReadLocal + 2*hop
	forward := float64(l.NIHold) + float64(l.WireForward) + float64(l.NIHold)
	owner := float64(l.BusHold + l.OwnerAccess)
	s.ReadDirty = s.ReadHome + forward + owner
	s.WriteOwned = float64(l.SecCheckWrite)
	s.WriteLocal = s.WriteOwned + float64(l.BusHold+l.MemHold+l.WriteGrant)
	s.WriteHome = s.WriteLocal + 2*hop
	s.WriteDirty = s.WriteHome + forward + owner
	s.UncReadLocal = float64(l.UncachedReadLocal)
	s.UncReadRemote = float64(l.UncachedReadRemote)
	s.UncWriteLocal = float64(l.UncachedWriteLocal)
	s.UncWriteRemote = float64(l.UncachedWriteRemote)
	return s
}

// meshAvgDistance is the mean Manhattan distance between two uniformly
// random nodes of a w x w mesh (w = sqrt(procs)): 2*(w^2-1)/(3*w) hops.
func meshAvgDistance(procs int) float64 {
	fw := float64(config.Isqrt(procs))
	return 2 * (fw*fw - 1) / (3 * fw)
}

// mdl1Wait is the mean queueing delay of an M/D/1 server with
// deterministic service time s and utilization u: u*s / (2*(1-u)).
// Utilization is clamped below saturation so an overloaded operating
// point degrades to a large-but-finite wait instead of dividing by zero.
func mdl1Wait(u, s float64) float64 {
	if u <= 0 {
		return 0
	}
	if u > maxUtilization {
		u = maxUtilization
	}
	return u * s / (2 * (1 - u))
}

// maxUtilization caps modeled resource utilization: the simulator's
// closed-loop workload cannot sustain an offered load above 1, and the
// open-loop M/D/1 correction must stay finite.
const maxUtilization = 0.95

// Validate reports whether the twin can model the configuration. The
// twin covers everything the matrix and sweep generate; the checks guard
// the same invalid inputs config.Validate rejects plus the twin's own
// modeling limits.
func Validate(cfg *config.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Contexts > 64 {
		return fmt.Errorf("twin: Contexts = %d, the context-utilization model is calibrated for small context counts (<= 64)", cfg.Contexts)
	}
	return nil
}
