// Package latsim is a detailed architectural simulator of a DASH-like
// large-scale shared-memory multiprocessor, built to reproduce
//
//	Gupta, Hennessy, Gharachorloo, Mowry, Weber.
//	"Comparative Evaluation of Latency Reducing and Tolerating
//	Techniques", ISCA 1991.
//
// The library models a 16-node directory-based cache-coherent machine
// (two-level lockup-free caches, write and prefetch buffers, an
// invalidating full-bit-vector directory protocol, bus and network
// contention) and the four latency techniques the paper studies:
// hardware-coherent caching of shared data, relaxed memory consistency
// (sequential vs release consistency), software-controlled non-binding
// prefetching, and multiple hardware contexts per processor.
//
// Applications run as native Go code coupled to the simulator
// Tango-style: every shared reference blocks the process until the
// architecture model completes it. Three faithful ports of the paper's
// benchmarks are included (MP3D, LU, PTHOR), plus the experiment harness
// that regenerates every table and figure in the paper's evaluation.
//
// Quick start:
//
//	cfg := latsim.DefaultConfig()      // 16 procs, SC, coherent caches
//	cfg.Model = latsim.RC              // relax the consistency model
//	res, err := latsim.Run(cfg, latsim.NewLU(latsim.LUParams{N: 200, Seed: 1}))
//	fmt.Println(res.Breakdown)
//
// Custom workloads implement the App interface and use the Env API
// (Compute, Read, Write, Prefetch, Lock, Unlock, Barrier) from each
// worker process; Env.Queue and Env.Wait bracket stretches that observe
// nothing, so their operations skip the per-operation process switch,
// and Env.Poll runs a polling loop's step on the simulator's side.
package latsim

import (
	"context"
	"errors"
	"io"
	"time"

	"latsim/internal/apps/lu"
	"latsim/internal/apps/mp3d"
	"latsim/internal/apps/pthor"
	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
	"latsim/internal/runner"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// Re-exported core types. The aliases make the whole public surface
// importable from the single latsim package.
type (
	// Config selects the machine parameters and technique knobs.
	Config = config.Config
	// Consistency is the memory consistency model (SC or RC).
	Consistency = config.Consistency
	// Latencies are the stage latencies composing Table 1.
	Latencies = config.Latencies

	// Machine is one simulated multiprocessor instance.
	Machine = machine.Machine
	// App is a workload runnable on a Machine.
	App = machine.App
	// Result is the outcome of one run.
	Result = machine.Result

	// Env is the per-process interface to the simulator.
	Env = cpu.Env

	// Addr is a simulated shared-memory address.
	Addr = mem.Addr
	// Lock is a simulated spin lock.
	Lock = msync.Lock
	// Barrier is a simulated global barrier.
	Barrier = msync.Barrier

	// Breakdown is an execution-time decomposition.
	Breakdown = stats.Breakdown
	// Bucket identifies one execution-time component.
	Bucket = stats.Bucket
	// ProcStats are per-processor statistics.
	ProcStats = stats.Proc
	// Time is simulated time in processor cycles.
	Time = sim.Time
)

// Consistency models. SC and RC are the paper's two endpoints; PC
// (processor consistency) and WC (weak consistency) are the intermediate
// models the paper cites.
const (
	SC = config.SC
	PC = config.PC
	WC = config.WC
	RC = config.RC
)

// Execution-time buckets (the sections of the paper's stacked bars).
const (
	Busy             = stats.Busy
	PrefetchOverhead = stats.PrefetchOverhead
	ReadStall        = stats.ReadStall
	WriteStall       = stats.WriteStall
	SyncStall        = stats.SyncStall
	Switching        = stats.Switching
	NoSwitchIdle     = stats.NoSwitchIdle
	AllIdle          = stats.AllIdle
	NumBuckets       = stats.NumBuckets
)

// LineSize is the cache-line size in bytes (16, as in the paper).
const LineSize = mem.LineSize

// DefaultConfig returns the paper's simulated machine: 16 processors,
// one context, sequential consistency, coherent caches, scaled cache
// sizes, Table 1 latencies.
func DefaultConfig() Config { return config.Default() }

// NewMachine builds a machine for one run.
func NewMachine(cfg Config) (*Machine, error) { return machine.New(cfg) }

// Run builds a machine and executes the application on it.
func Run(cfg Config, app App) (*Result, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(app)
}

// RunContext is Run with cancellation: the simulation aborts with ctx's
// error when the context is canceled or times out.
func RunContext(ctx context.Context, cfg Config, app App) (*Result, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx, app)
}

// BatchOptions configure RunAll's parallel job engine.
type BatchOptions struct {
	// Jobs bounds concurrent simulations (0 = runtime.GOMAXPROCS).
	Jobs int
	// Timeout is the per-run wall-clock limit (0 = none).
	Timeout time.Duration
	// CacheDir persists results on disk keyed by configuration hash.
	// Because the library cannot hash an arbitrary App's workload, the
	// cache requires AppID to be set.
	CacheDir string
	// AppID names the workload for cache keying. It must change whenever
	// the workload's behavior (code, parameters, seeds) changes, or stale
	// cached results will be served.
	AppID string
	// Trace receives per-run progress lines (nil discards them).
	Trace io.Writer
}

// BatchMetrics is a snapshot of a batch run's progress counters.
type BatchMetrics = runner.Metrics

// RunAll executes one application workload under many machine
// configurations concurrently and returns the results in cfgs order.
// newApp must return a fresh App per call (apps hold run state).
// Identical configurations deduplicate onto a single simulation and
// share one *Result. Simulations are deterministic, so the results
// equal a sequential Run of each configuration.
func RunAll(cfgs []Config, newApp func() App) ([]*Result, error) {
	return RunAllContext(context.Background(), cfgs, newApp, BatchOptions{})
}

// RunAllContext is RunAll with cancellation and engine options.
func RunAllContext(ctx context.Context, cfgs []Config, newApp func() App, opt BatchOptions) ([]*Result, error) {
	if newApp == nil {
		return nil, errors.New("latsim: RunAll: nil newApp")
	}
	if opt.CacheDir != "" && opt.AppID == "" {
		return nil, errors.New("latsim: RunAll: BatchOptions.CacheDir requires AppID (the cache key must identify the workload)")
	}
	appID := opt.AppID
	if appID == "" {
		appID = "custom"
	}
	eng, err := runner.New(runner.Options{
		Workers:  opt.Jobs,
		CacheDir: opt.CacheDir,
		Timeout:  opt.Timeout,
		Trace:    opt.Trace,
	}, func(ctx context.Context, j runner.Job) (*Result, error) {
		m, err := machine.New(j.Cfg)
		if err != nil {
			return nil, err
		}
		return m.RunContext(ctx, newApp())
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	jobs := make([]runner.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = runner.Job{App: appID, Cfg: cfg}
	}
	return eng.RunAll(ctx, jobs)
}

// Benchmark application parameter types.
type (
	// MP3DParams configures the particle simulator.
	MP3DParams = mp3d.Params
	// LUParams configures the LU decomposition.
	LUParams = lu.Params
	// PTHORParams configures the logic simulator.
	PTHORParams = pthor.Params
	// CircuitParams configures PTHOR's synthetic netlist.
	CircuitParams = pthor.CircuitParams
)

// NewMP3D returns the MP3D benchmark (paper defaults: mp3d.Default()).
func NewMP3D(p MP3DParams) App { return mp3d.New(p) }

// NewLU returns the LU benchmark (paper defaults: lu.Default()).
func NewLU(p LUParams) App { return lu.New(p) }

// NewPTHOR returns the PTHOR benchmark (paper defaults: pthor.Default()).
func NewPTHOR(p PTHORParams) App { return pthor.New(p) }

// MP3DDefaults returns the paper's MP3D parameters (10,000 particles,
// 14x24x7 cells, 5 steps).
func MP3DDefaults() MP3DParams { return mp3d.Default() }

// LUDefaults returns the paper's LU parameters (200x200 matrix).
func LUDefaults() LUParams { return lu.Default() }

// PTHORDefaults returns the paper's PTHOR parameters (~11,000 gates,
// 5 clock cycles).
func PTHORDefaults() PTHORParams { return pthor.Default() }
