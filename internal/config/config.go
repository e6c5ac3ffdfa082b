// Package config holds the machine configuration: the architectural
// parameters of the simulated DASH-like multiprocessor and the knobs for
// the four latency reducing/tolerating techniques under study.
package config

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"

	"latsim/internal/dirset"
)

// Consistency selects the memory consistency model.
type Consistency int

const (
	// SC is sequential consistency: the processor stalls after every
	// shared write until ownership is acquired, so accesses from each
	// process complete in program order.
	SC Consistency = iota
	// PC is processor consistency (Goodman): writes are buffered so the
	// processor does not stall, but they perform strictly in program
	// order — the write buffer keeps a single ownership request
	// outstanding — and synchronization writes need not wait for
	// invalidation acknowledgements. Falls between SC and RC, as the
	// paper notes.
	PC
	// WC is weak consistency (Dubois/Scheurich/Briggs): ordinary writes
	// buffer and pipeline like RC, but every synchronization access is
	// a full fence — it waits for all previous accesses (including
	// invalidation acks) and completes before the processor continues.
	WC
	// RC is release consistency: writes retire from the write buffer
	// asynchronously and pipeline; only a release waits until all
	// previous writes have completed and their invalidations are
	// acknowledged, and the processor never stalls for it.
	RC
)

func (c Consistency) String() string {
	switch c {
	case SC:
		return "SC"
	case PC:
		return "PC"
	case WC:
		return "WC"
	case RC:
		return "RC"
	}
	return fmt.Sprintf("Consistency(%d)", int(c))
}

// Buffered reports whether the model lets the processor continue past
// ordinary writes (everything except SC).
func (c Consistency) Buffered() bool { return c != SC }

// ParseConsistency converts a model name ("SC", "PC", "WC", "RC",
// case-insensitive) to the enumeration.
func ParseConsistency(s string) (Consistency, error) {
	switch strings.ToUpper(s) {
	case "SC":
		return SC, nil
	case "PC":
		return PC, nil
	case "WC":
		return WC, nil
	case "RC":
		return RC, nil
	}
	return 0, fmt.Errorf("config: unknown consistency model %q (valid: SC, PC, WC, RC)", s)
}

// UnmarshalJSON decodes the integer encoding Marshal emits, which the
// runner's cache entries contain, and rejects a value outside the
// enumeration: a cache file read from disk must not yield an unknown
// model.
func (c *Consistency) UnmarshalJSON(b []byte) error {
	var v int
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	if v < int(SC) || v > int(RC) {
		return fmt.Errorf("config: Consistency(%d) out of range", v)
	}
	*c = Consistency(v)
	return nil
}

// Config describes one simulated machine + technique combination.
type Config struct {
	// Procs is the number of processing nodes (the paper uses 16).
	Procs int
	// Contexts is the number of hardware contexts per processor (1, 2
	// or 4 in the paper).
	Contexts int
	// SwitchPenalty is the context-switch overhead in cycles (4 for an
	// aggressive implementation, 16 for a less aggressive one).
	SwitchPenalty int
	// Model is the memory consistency model.
	Model Consistency
	// CacheShared enables hardware-coherent caching of shared
	// read-write data. When false (the Figure 2 baseline), shared
	// references bypass the caches and go straight to memory.
	CacheShared bool
	// Prefetch asks applications to run their software-prefetching
	// variants (Section 5).
	Prefetch bool

	// PrimaryBytes and SecondaryBytes are the per-node cache sizes for
	// shared data. The paper's hardware has 64 KB / 256 KB but the
	// experiments scale them to 2 KB / 4 KB to keep a realistic
	// problem-size:cache-size ratio (Section 2.3).
	PrimaryBytes   int
	SecondaryBytes int
	// SecondaryWays is the secondary cache's associativity. The paper's
	// machine is direct-mapped (1); higher values are an ablation.
	SecondaryWays int

	// WriteBufferDepth is the number of write-buffer entries (16).
	WriteBufferDepth int
	// PrefetchBufferDepth is the number of prefetch-buffer entries (16).
	PrefetchBufferDepth int
	// MaxOutstandingWrites bounds write pipelining from the write buffer
	// under RC (the lockup-free secondary cache's write MSHRs).
	MaxOutstandingWrites int
	// PrefetchIssueCycles is the instruction overhead of issuing one
	// prefetch (the prefetch instruction plus address computation),
	// accounted as prefetch overhead.
	PrefetchIssueCycles int
	// MaxCycles aborts a run that exceeds this many simulated cycles
	// (a watchdog against runaway workloads). Zero means no limit.
	MaxCycles uint64
	// MeshNetwork replaces the constant-latency direct network with a
	// 2-D wormhole mesh (the real DASH topology): dimension-ordered
	// routing, per-link contention, latency growing with distance. The
	// Table 1 calibration applies to the direct network only.
	MeshNetwork bool
	// MeshHopCycles is the per-hop router+wire latency on the mesh.
	MeshHopCycles int
	// MeshLinkOccupancy is the per-link occupancy per message (flits).
	MeshLinkOccupancy int
	// ExclusiveGrant makes a read miss to an uncached line return the
	// line in exclusive (dirty) state, so a subsequent write by the
	// reader hits locally (the MESI E-state idea). The paper's DASH
	// protocol does not do this — its large MP3D write-miss times
	// require read-then-write data to pay an upgrade — so the default
	// is off; it is studied as an ablation.
	ExclusiveGrant bool

	// DirOrg selects the directory's sharer-set organization. The
	// default full-map is exact at any machine size; limited-pointer and
	// coarse-vector trade precision for per-entry storage (DESIGN.md
	// §4e). Imprecise organizations send extra (spurious) invalidations
	// but never miss a true sharer.
	DirOrg dirset.Org
	// DirPointers is the pointer count i of the limited-pointer Dir_i B
	// organization (ignored by the other organizations).
	DirPointers int
	// DirCoarseness is the processors-per-bit group size k of the
	// coarse-vector organization (ignored by the other organizations).
	DirCoarseness int

	Lat Latencies
}

// Latencies are the stage latencies and resource occupancies, in processor
// cycles, that compose into the Table 1 service times. The defaults are
// calibrated so the no-contention totals match Table 1 exactly (asserted
// by machine tests).
type Latencies struct {
	// Read path.
	SecLookup int // primary-miss detect + secondary lookup (read)
	FillSec   int // fill secondary from bus data
	FillPrim  int // fill primary (also the primary-port lockout time)

	// Write path.
	SecCheckWrite int // secondary ownership check (owned-hit latency)
	WriteGrant    int // ownership-grant processing at the requester

	// Shared resources.
	BusHold int // node bus occupancy per transaction
	MemHold int // memory + directory controller occupancy
	NIHold  int // network interface occupancy per message

	// Network.
	Wire        int // wire latency of a full network hop
	WireForward int // shortened dirty-forward hop (request combining)

	// Remote-owner service.
	OwnerAccess int // owner secondary access beyond its bus hold
	InvalApply  int // cycles to invalidate a line at a sharer

	// Uncached shared-data latencies (Figure 2 "no cache" mode); these
	// are "five to ten cycles less" than the cached Table 1 values
	// because there is no fill overhead.
	UncachedReadLocal   int
	UncachedReadRemote  int
	UncachedWriteLocal  int
	UncachedWriteRemote int
}

// Default returns the paper's simulated machine: 16 processors, a single
// context, sequential consistency, coherent caches with the scaled
// 2 KB / 4 KB cache sizes, and Table 1 latencies.
func Default() Config {
	return Config{
		Procs:                16,
		Contexts:             1,
		SwitchPenalty:        4,
		Model:                SC,
		CacheShared:          true,
		Prefetch:             false,
		PrimaryBytes:         2 * 1024,
		SecondaryBytes:       4 * 1024,
		SecondaryWays:        1,
		WriteBufferDepth:     16,
		PrefetchBufferDepth:  16,
		MaxOutstandingWrites: 4,
		PrefetchIssueCycles:  2,
		MeshHopCycles:        6,
		MeshLinkOccupancy:    2,
		DirOrg:               dirset.FullMap,
		DirPointers:          4,
		DirCoarseness:        4,
		Lat: Latencies{
			SecLookup:           7,
			FillSec:             2,
			FillPrim:            6,
			SecCheckWrite:       2,
			WriteGrant:          6,
			BusHold:             4,
			MemHold:             6,
			NIHold:              4,
			Wire:                15,
			WireForward:         3,
			OwnerAccess:         3,
			InvalApply:          4,
			UncachedReadLocal:   20,
			UncachedReadRemote:  64,
			UncachedWriteLocal:  12,
			UncachedWriteRemote: 56,
		},
	}
}

// FullCaches returns c with the unscaled 64 KB / 256 KB cache sizes of the
// DASH prototype (the Section 2.3 sensitivity check).
func (c Config) FullCaches() Config {
	c.PrimaryBytes = 64 * 1024
	c.SecondaryBytes = 256 * 1024
	return c
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Procs < 1:
		return fmt.Errorf("config: Procs = %d, need >= 1", c.Procs)
	case c.Contexts < 1:
		return fmt.Errorf("config: Contexts = %d, need >= 1", c.Contexts)
	case c.SwitchPenalty < 0:
		return fmt.Errorf("config: negative SwitchPenalty")
	case c.PrimaryBytes < 16 || c.PrimaryBytes%16 != 0:
		return fmt.Errorf("config: PrimaryBytes = %d, need positive multiple of line size", c.PrimaryBytes)
	case c.SecondaryBytes < 16 || c.SecondaryBytes%16 != 0:
		return fmt.Errorf("config: SecondaryBytes = %d, need positive multiple of line size", c.SecondaryBytes)
	case c.SecondaryWays < 1:
		return fmt.Errorf("config: SecondaryWays = %d, need >= 1", c.SecondaryWays)
	case c.WriteBufferDepth < 1:
		return fmt.Errorf("config: WriteBufferDepth = %d, need >= 1", c.WriteBufferDepth)
	case c.PrefetchBufferDepth < 1:
		return fmt.Errorf("config: PrefetchBufferDepth = %d, need >= 1", c.PrefetchBufferDepth)
	case c.MaxOutstandingWrites < 1:
		return fmt.Errorf("config: MaxOutstandingWrites = %d, need >= 1", c.MaxOutstandingWrites)
	case c.PrefetchIssueCycles < 0:
		return fmt.Errorf("config: negative PrefetchIssueCycles")
	}
	// A negative latency would schedule an event in the simulated past.
	lat := reflect.ValueOf(&c.Lat).Elem()
	for i := 0; i < lat.NumField(); i++ {
		if v := lat.Field(i).Int(); v < 0 {
			return fmt.Errorf("config: Lat.%s = %d, need >= 0", lat.Type().Field(i).Name, v)
		}
	}
	if c.MeshNetwork {
		if w := Isqrt(c.Procs); w*w != c.Procs {
			return fmt.Errorf("config: MeshNetwork needs a square processor count, got Procs = %d", c.Procs)
		}
		if c.MeshHopCycles <= 0 {
			return fmt.Errorf("config: MeshHopCycles = %d, need >= 1 with MeshNetwork", c.MeshHopCycles)
		}
		if c.MeshLinkOccupancy <= 0 {
			return fmt.Errorf("config: MeshLinkOccupancy = %d, need >= 1 with MeshNetwork", c.MeshLinkOccupancy)
		}
	}
	if !c.DirOrg.Valid() {
		return fmt.Errorf("config: unknown directory organization DirOrg(%d) (valid: %s)",
			int(c.DirOrg), strings.Join(dirset.OrgNames, ", "))
	}
	switch c.DirOrg {
	case dirset.LimitedPtr:
		if c.DirPointers < 1 {
			return fmt.Errorf("config: DirPointers = %d, need >= 1 with the limited-pointer organization", c.DirPointers)
		}
	case dirset.CoarseVector:
		if c.DirCoarseness < 1 {
			return fmt.Errorf("config: DirCoarseness = %d, need >= 1 with the coarse-vector organization", c.DirCoarseness)
		}
		if c.Procs <= c.DirPointers {
			return fmt.Errorf("config: coarse-vector at Procs = %d <= DirPointers = %d is pointless: a limited-pointer (or full-map) directory is already exact there", c.Procs, c.DirPointers)
		}
	}
	return nil
}

// ValidateSpanRate checks a span-tracing sample rate: 0 disables
// tracing, otherwise the rate must lie in (0, 1].
func ValidateSpanRate(rate float64) error {
	if rate == 0 {
		return nil
	}
	if rate != rate || rate < 0 || rate > 1 {
		return fmt.Errorf("config: span sample rate = %v, need 0 (off) or within (0, 1]", rate)
	}
	return nil
}

// ValidateListenAddr checks a telemetry listen address: "" disables the
// server, otherwise the address must be a host:port the listener can
// parse (an empty host and port 0 are allowed).
func ValidateListenAddr(addr string) error {
	if addr == "" {
		return nil
	}
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return fmt.Errorf("config: listen address %q: %w", addr, err)
	}
	return nil
}

// Isqrt returns the integer square root of n: the largest w with
// w*w <= n. A mesh machine is Isqrt(Procs) nodes wide.
func Isqrt(n int) int {
	w := 0
	for (w+1)*(w+1) <= n {
		w++
	}
	return w
}

// TotalProcesses is Procs * Contexts: the number of application processes
// the workload must provide (e.g. 64 for 16 four-context processors).
func (c *Config) TotalProcesses() int { return c.Procs * c.Contexts }

// Name returns a compact label like "RC-pf-4ctx/4" used in reports.
func (c *Config) Name() string {
	s := c.Model.String()
	if !c.CacheShared {
		s = "nocache-" + s
	}
	if c.Prefetch {
		s += "-pf"
	}
	if c.Contexts > 1 {
		s += fmt.Sprintf("-%dctx/%d", c.Contexts, c.SwitchPenalty)
	}
	switch c.DirOrg {
	case dirset.LimitedPtr:
		s += fmt.Sprintf("-dirLP%d", c.DirPointers)
	case dirset.CoarseVector:
		s += fmt.Sprintf("-dirCV%d", c.DirCoarseness)
	}
	return s
}
