// Package machine assembles the simulated multiprocessor: nodes,
// processors, the interconnect, synchronization objects, and the run loop
// that executes an application to completion.
package machine

import (
	"context"
	"fmt"
	"strings"

	"latsim/internal/check"
	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/mem"
	"latsim/internal/memsys"
	"latsim/internal/msync"
	"latsim/internal/obs"
	"latsim/internal/obs/span"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// App is a benchmark application: Setup allocates its shared data and
// synchronization objects, then Worker runs once per application process
// (Procs*Contexts processes in total).
type App interface {
	Name() string
	Setup(m *Machine) error
	Worker(e *cpu.Env, pid, nprocs int)
}

// Machine is one simulated DASH-like multiprocessor instance. A Machine
// runs a single application once; build a fresh Machine per experiment.
type Machine struct {
	cfg   config.Config
	k     *sim.Kernel
	alloc *mem.Allocator
	nodes []*memsys.Node
	procs []*cpu.Processor
	sts   []*stats.Proc
	mesh  *memsys.Mesh
	rec   *obs.Recorder
	chk   *check.Checker
	ran   bool
}

// New builds a machine for the given configuration.
func New(cfg config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Prefetch && !cfg.CacheShared {
		return nil, fmt.Errorf("machine: prefetching requires coherent caches")
	}
	m := &Machine{
		cfg:   cfg,
		k:     sim.NewKernel(),
		alloc: mem.NewAllocator(cfg.Procs),
	}
	for i := 0; i < cfg.Procs; i++ {
		st := &stats.Proc{}
		m.sts = append(m.sts, st)
		m.nodes = append(m.nodes, memsys.NewNode(m.k, i, &m.cfg, m.alloc, st))
	}
	if cfg.MeshNetwork {
		m.mesh = memsys.NewMesh(m.k, cfg.Procs, cfg.MeshHopCycles, cfg.MeshLinkOccupancy)
	}
	memsys.Connect(m.nodes)
	for i, n := range m.nodes {
		if m.mesh != nil {
			n.AttachMesh(m.mesh)
		}
		m.procs = append(m.procs, cpu.NewProcessor(m.k, &m.cfg, n, m.sts[i]))
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() *config.Config { return &m.cfg }

// EnableObs installs an observability recorder on every model layer
// (processors, memory-system nodes, the mesh if present) and returns it.
// Must be called before Run; the resulting report is attached to the
// run's Result. Calling it again returns the existing recorder.
func (m *Machine) EnableObs(opts obs.Options) *obs.Recorder {
	if m.rec != nil {
		return m.rec
	}
	m.rec = obs.NewRecorder(m.k, m.cfg.Procs, opts)
	for _, n := range m.nodes {
		n.SetObs(m.rec)
	}
	for _, p := range m.procs {
		p.SetObs(m.rec)
	}
	if m.mesh != nil {
		m.mesh.SetObs(m.rec)
	}
	return m.rec
}

// EnableCheck installs the runtime coherence invariant checker on the
// memory system (the -check flag). Must be called before Run; the run
// then fails with the first violation instead of returning a result.
// Calling it again returns the existing checker. The checker follows
// the same zero-perturbation contract as the recorder: timing and
// output are byte-identical with it on or off.
func (m *Machine) EnableCheck() (*check.Checker, error) {
	if m.chk != nil {
		return m.chk, nil
	}
	// Strict node-level write-buffer FIFO holds under PC (one
	// outstanding ownership request drains the buffer in order) and
	// under single-context SC (the lone context stalls on each write).
	// SC with multiple contexts interleaves writes from different
	// contexts in one buffer; only per-context order is architectural,
	// so the node-level FIFO assertion must relax.
	ordered := m.cfg.Model == config.PC ||
		(m.cfg.Model == config.SC && m.cfg.Contexts == 1)
	m.chk = memsys.EnableCheck(m.k, m.nodes, ordered)
	return m.chk, nil
}

// Kernel exposes the simulation kernel (tests and tools).
func (m *Machine) Kernel() *sim.Kernel { return m.k }

// Nodes exposes the memory-system nodes (tests and tools).
func (m *Machine) Nodes() []*memsys.Node { return m.nodes }

// Processors exposes the processor models (tests and tools).
func (m *Machine) Processors() []*cpu.Processor { return m.procs }

// Alloc allocates shared memory with default round-robin page placement.
func (m *Machine) Alloc(size int) mem.Addr { return m.alloc.Alloc(size) }

// AllocOnNode allocates shared memory homed on a specific node.
func (m *Machine) AllocOnNode(size, node int) mem.Addr {
	return m.alloc.AllocOnNode(size, node)
}

// SharedBytes returns total allocated shared data (Table 2 column).
func (m *Machine) SharedBytes() uint64 { return m.alloc.TotalBytes() }

// HomeOf returns the home node of an allocated shared address.
func (m *Machine) HomeOf(a mem.Addr) int { return m.alloc.Home(a) }

// NodeOfProcess maps a global process id to its processing node:
// processes are interleaved across nodes, so pids 0..Procs-1 land on
// distinct nodes and additional contexts wrap around.
func (m *Machine) NodeOfProcess(pid int) int { return pid % m.cfg.Procs }

// NewLock allocates and returns a spin lock (one line of shared memory,
// round-robin placement).
func (m *Machine) NewLock() *msync.Lock {
	return msync.NewLock(m.Alloc(mem.LineSize))
}

// NewLockOnNode allocates a lock homed on the given node.
func (m *Machine) NewLockOnNode(node int) *msync.Lock {
	return msync.NewLock(m.AllocOnNode(mem.LineSize, node))
}

// NewBarrier allocates a barrier for n participants.
func (m *Machine) NewBarrier(n int) *msync.Barrier {
	return msync.NewBarrier(m.Alloc(mem.LineSize), m.Alloc(mem.LineSize), n)
}

// Result summarizes one application run.
type Result struct {
	AppName     string
	Cfg         config.Config
	Elapsed     sim.Time
	Breakdown   stats.Breakdown
	Procs       []*stats.Proc
	SharedBytes uint64
	Events      uint64
	Kernel      sim.Stats
	Obs         *obs.Report `json:",omitempty"`
	// InvariantChecks counts the per-line coherence invariant
	// evaluations the -check checker ran (0 when disabled).
	InvariantChecks uint64 `json:",omitempty"`
}

// Run executes the application to completion and returns its result.
func (m *Machine) Run(app App) (*Result, error) {
	return m.RunContext(context.Background(), app)
}

// RunContext is Run with cancellation: the simulation stops early with
// ctx's error when the context is canceled or times out. The context is
// polled every 1024 simulator events to keep the hot event loop cheap.
func (m *Machine) RunContext(ctx context.Context, app App) (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("machine: already ran; build a fresh Machine per run")
	}
	m.ran = true
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("machine: %s canceled before start: %w", app.Name(), err)
	}
	if err := app.Setup(m); err != nil {
		return nil, fmt.Errorf("machine: setup of %s: %w", app.Name(), err)
	}
	total := m.cfg.TotalProcesses()
	for pid := 0; pid < total; pid++ {
		node := m.NodeOfProcess(pid)
		pid := pid
		m.procs[node].AddWorker(pid, total, func(e *cpu.Env) {
			app.Worker(e, pid, total)
		})
	}
	// Every exit path, a panic included, stops the processes still
	// suspended mid-body, so an early-ended run leaks no goroutines.
	defer func() {
		for _, p := range m.procs {
			p.Stop()
		}
	}()
	for _, p := range m.procs {
		p.Start()
	}
	var ctxErr error
	var stop func() bool
	watchdog := m.cfg.MaxCycles > 0
	if watchdog || ctx.Done() != nil {
		var tick uint
		stop = func() bool {
			if watchdog && uint64(m.k.Now()) > m.cfg.MaxCycles {
				return true
			}
			if tick++; tick&1023 == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return true
				}
			}
			return false
		}
	}
	m.k.Run(stop)
	if ctxErr != nil {
		return nil, fmt.Errorf("machine: %s canceled at t=%d: %w", app.Name(), m.k.Now(), ctxErr)
	}
	if watchdog && uint64(m.k.Now()) > m.cfg.MaxCycles {
		var states []string
		for _, p := range m.procs {
			states = append(states, p.StateSummary())
		}
		return nil, fmt.Errorf("machine: %s exceeded the %d-cycle watchdog:\n%s",
			app.Name(), m.cfg.MaxCycles, strings.Join(states, "\n"))
	}

	var stuck []string
	var elapsed sim.Time
	for _, p := range m.procs {
		if !p.Done() {
			stuck = append(stuck, p.StateSummary())
		}
		if p.DoneAt() > elapsed {
			elapsed = p.DoneAt()
		}
	}
	if len(stuck) > 0 {
		return nil, fmt.Errorf("machine: deadlock at t=%d running %s:\n%s",
			m.k.Now(), app.Name(), strings.Join(stuck, "\n"))
	}
	if err := memsys.CheckInvariants(m.nodes); err != nil {
		return nil, fmt.Errorf("machine: coherence invariant violated after %s: %w", app.Name(), err)
	}
	if err := m.chk.Err(); err != nil {
		return nil, fmt.Errorf("machine: %s: %w (%d total violations)", app.Name(), err, m.chk.Violations())
	}
	res := &Result{
		AppName:     app.Name(),
		Cfg:         m.cfg,
		Elapsed:     elapsed,
		Breakdown:   stats.Aggregate(m.sts, elapsed),
		Procs:       m.sts,
		SharedBytes: m.alloc.TotalBytes(),
		Events:      m.k.Events(),
		Kernel:      m.k.KernelStats(),

		InvariantChecks: m.chk.Checks(),
	}
	if m.rec != nil {
		res.Obs = m.rec.Finish(elapsed)
		if res.Obs.Spans != nil {
			// The machine owns the per-processor stall totals; join them
			// with the sampled spans into the critical-path waterfall.
			stalls := make([]span.ProcStalls, len(m.sts))
			for i, st := range m.sts {
				stalls[i] = span.ProcStalls{
					Proc:     i,
					Read:     uint64(st.Time[stats.ReadStall]),
					Write:    uint64(st.Time[stats.WriteStall]),
					Sync:     uint64(st.Time[stats.SyncStall]),
					Prefetch: uint64(st.Time[stats.PrefetchOverhead]),
				}
			}
			res.Obs.Waterfall = span.Attribute(res.Obs.Spans, stalls)
			if res.Obs.Waterfall != nil {
				res.Obs.Waterfall.Inval = &span.InvalAccounting{
					Org:       m.cfg.DirOrg.String(),
					Sent:      res.InvalsSent(),
					Spurious:  res.SpuriousInvals(),
					Overflows: res.DirOverflows(),
				}
			}
		}
	}
	return res, nil
}

// Totals sums a counter over all processors.
func (r *Result) Totals(get func(*stats.Proc) uint64) uint64 {
	var t uint64
	for _, p := range r.Procs {
		t += get(p)
	}
	return t
}

// UsefulCycles returns total busy cycles over all processors (Table 2).
func (r *Result) UsefulCycles() uint64 {
	var t uint64
	for _, p := range r.Procs {
		t += uint64(p.Time[stats.Busy])
	}
	return t
}

// SharedReads / SharedWrites / Locks / Barriers return machine totals.
func (r *Result) SharedReads() uint64 {
	return r.Totals(func(p *stats.Proc) uint64 { return p.SharedReads })
}
func (r *Result) SharedWrites() uint64 {
	return r.Totals(func(p *stats.Proc) uint64 { return p.SharedWrites })
}
func (r *Result) Locks() uint64 {
	return r.Totals(func(p *stats.Proc) uint64 { return p.Locks })
}
func (r *Result) Barriers() uint64 {
	return r.Totals(func(p *stats.Proc) uint64 { return p.Barriers })
}
func (r *Result) Prefetches() uint64 {
	return r.Totals(func(p *stats.Proc) uint64 { return p.Prefetches })
}

// InvalsSent / DirOverflows / SpuriousInvals return machine totals of the
// directory-organization accounting (DESIGN.md §4e).
func (r *Result) InvalsSent() uint64 {
	return r.Totals(func(p *stats.Proc) uint64 { return p.InvalsSent })
}
func (r *Result) DirOverflows() uint64 {
	return r.Totals(func(p *stats.Proc) uint64 { return p.DirOverflows })
}
func (r *Result) SpuriousInvals() uint64 {
	return r.Totals(func(p *stats.Proc) uint64 { return p.SpuriousInvals })
}

// ReadHitRate returns the shared-read cache hit rate (primary+secondary).
func (r *Result) ReadHitRate() float64 {
	reads := r.SharedReads()
	if reads == 0 {
		return 0
	}
	hits := r.Totals(func(p *stats.Proc) uint64 { return p.ReadPrimaryHit + p.ReadSecHit })
	return float64(hits) / float64(reads)
}

// WriteHitRate returns the shared-write hit rate in the paper's sense:
// the fraction of writes serviced without remote traffic (the line is
// already owned by the secondary cache, or its home is the local node).
func (r *Result) WriteHitRate() float64 {
	writes := r.SharedWrites()
	if writes == 0 {
		return 0
	}
	hits := r.Totals(func(p *stats.Proc) uint64 { return p.WriteHits + p.WriteLocal })
	return float64(hits) / float64(writes)
}

// WriteOwnedRate returns the fraction of writes that found the line
// already owned by the secondary cache (retired in 2 cycles).
func (r *Result) WriteOwnedRate() float64 {
	writes := r.SharedWrites()
	if writes == 0 {
		return 0
	}
	hits := r.Totals(func(p *stats.Proc) uint64 { return p.WriteHits })
	return float64(hits) / float64(writes)
}

// ProcessorUtilization is busy time divided by elapsed time, averaged.
func (r *Result) ProcessorUtilization() float64 {
	if r.Elapsed == 0 || len(r.Procs) == 0 {
		return 0
	}
	var busy sim.Time
	for _, p := range r.Procs {
		busy += p.Time[stats.Busy]
	}
	return float64(busy) / float64(uint64(r.Elapsed)*uint64(len(r.Procs)))
}

// MeanRunLength returns the mean run length over all processors.
func (r *Result) MeanRunLength() float64 {
	if len(r.Procs) == 0 {
		return 0
	}
	var sum float64
	for _, p := range r.Procs {
		sum += p.MeanRunLength()
	}
	return sum / float64(len(r.Procs))
}

// MedianRunLength returns the median over processors' median run lengths.
func (r *Result) MedianRunLength() sim.Time {
	if len(r.Procs) == 0 {
		return 0
	}
	meds := make([]sim.Time, 0, len(r.Procs))
	for _, p := range r.Procs {
		meds = append(meds, p.MedianRunLength())
	}
	for i := 1; i < len(meds); i++ {
		for j := i; j > 0 && meds[j] < meds[j-1]; j-- {
			meds[j], meds[j-1] = meds[j-1], meds[j]
		}
	}
	return meds[len(meds)/2]
}
