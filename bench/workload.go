package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"latsim/internal/apps/lu"
	"latsim/internal/apps/mp3d"
	"latsim/internal/apps/pthor"
	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/machine"
	"latsim/internal/runner"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// sweepWorkers is the runner's worker count for the sweep workload: two
// simulations in parallel, the most a 2-core reference box runs at once.
const sweepWorkers = 2

// newApp builds a benchmark application with the parameters
// core.newApp uses at the small scale; seed 0 keeps the paper's seeds.
func newApp(name string, seed int64, prefetch bool) (machine.App, error) {
	switch name {
	case "MP3D":
		p := mp3d.Scaled(2000, 2)
		if seed != 0 {
			p.Seed = seed
		}
		p.Prefetch = prefetch
		return mp3d.New(p), nil
	case "LU":
		p := lu.Scaled(96)
		if seed != 0 {
			p.Seed = seed
		}
		p.Prefetch = prefetch
		return lu.New(p), nil
	case "PTHOR":
		p := pthor.Default()
		p.Circuit.Gates, p.Circuit.Depth, p.Cycles = 3000, 12, 2
		if seed != 0 {
			p.Circuit.Seed = seed
		}
		p.Prefetch = prefetch
		return pthor.New(p), nil
	}
	return nil, fmt.Errorf("unknown app %q", name)
}

// work is what the simulator did in one iteration, summed over its runs.
type work struct {
	runs                        int
	reads, writes               uint64 // simulated shared references
	events, scheduled, advances uint64
	ctxSwitches                 uint64
	readMisses, writeMisses     uint64
	invalsSent                  uint64
	readHits                    uint64
	prefetches, pfUseless       uint64
	ops                         opCounts
}

func (w *work) add(res *machine.Result, ops *opCounts) {
	w.runs++
	w.reads += res.SharedReads()
	w.writes += res.SharedWrites()
	w.events += res.Kernel.Fired
	w.scheduled += res.Kernel.Scheduled
	w.advances += res.Kernel.Advances
	w.ctxSwitches += res.Totals(func(p *stats.Proc) uint64 { return p.Switches })
	w.readMisses += res.Totals(func(p *stats.Proc) uint64 { return p.ReadMisses })
	w.writeMisses += res.Totals(func(p *stats.Proc) uint64 { return p.WriteMisses })
	w.invalsSent += res.InvalsSent()
	w.readHits += res.Totals(func(p *stats.Proc) uint64 { return p.ReadPrimaryHit + p.ReadSecHit })
	w.prefetches += res.Prefetches()
	w.pfUseless += res.Totals(func(p *stats.Proc) uint64 { return p.PrefetchUseless })
	if ops != nil {
		for i, n := range ops {
			w.ops[i] += n
		}
	}
}

// sample is one iteration's measurements and outputs.
type sample struct {
	digest        string
	wall, cpu     time.Duration
	allocMB       float64
	liveMB        float64
	work          work
	slow          float64       // the host's slowdown around the iteration (calib.go)
	warm          time.Duration // sweep: the warm re-render
	executed      int64         // sweep: jobs the cold sweep executed
	warmCacheHits int64         // sweep: jobs the warm re-render loaded from the cache
}

// workload is one benchmark workload. run performs the timed part of an
// iteration and returns what must stay reachable until the live heap is
// measured; check does the untimed rest (the sweep's warm re-render).
type workload struct {
	name string
	// seeded workloads build their inputs from the seed. The others run
	// the paper's inputs whatever the seed: PTHOR's simulated work moves
	// up to 2.5x with its circuit or initial-state seed, which would make
	// host time measure the seed instead of the simulator.
	seeded bool
	// parallel is how many simulations the workload runs at once.
	parallel int
	run      func(seed int64, tr *tracer, parent int, s *sample) (keep any, err error)
	check    func(seed int64, tr *tracer, parent int, s *sample, keep any) error
}

var workloads = []*workload{
	{name: "lu-sc", seeded: true, parallel: 1, run: singleRun("LU", func(c *config.Config) {})},
	{name: "mp3d-rcpf-4ctx", seeded: true, parallel: 1, run: singleRun("MP3D", func(c *config.Config) {
		c.Model, c.Prefetch, c.Contexts, c.SwitchPenalty = config.RC, true, 4, 4
	})},
	{name: "pthor-64p", parallel: 1, run: singleRun("PTHOR", func(c *config.Config) { c.Procs = 64 })},
	{name: "fig3-sweep", parallel: sweepWorkers, run: coldSweep, check: warmSweep},
}

// inputSeed is the seed w builds its inputs from; 0 means the paper's.
func (w *workload) inputSeed(seed int64) int64 {
	if w.seeded {
		return seed
	}
	return 0
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// singleRun is one simulation of app on core.Base() modified by tweak.
func singleRun(app string, tweak func(*config.Config)) func(int64, *tracer, int, *sample) (any, error) {
	cfg := core.Base()
	tweak(&cfg)
	return func(seed int64, tr *tracer, parent int, s *sample) (any, error) {
		m, res, ops, err := simulate(context.Background(), app, cfg, seed, tr, parent, 0)
		if err != nil {
			return nil, err
		}
		s.work.add(res, ops)
		s.digest, err = resultDigest(res)
		return m, err
	}
}

// simulate runs one (app, configuration) pair the way core.Exec does. A
// non-nil tracer adds the machine.new, machine.run and apps.setup spans
// and counts the submitted operations.
func simulate(ctx context.Context, app string, cfg config.Config, seed int64, tr *tracer, parent, lane int) (*machine.Machine, *machine.Result, *opCounts, error) {
	a, err := newApp(app, seed, cfg.Prefetch)
	if err != nil {
		return nil, nil, nil, err
	}
	var ops *opCounts
	id := tr.begin("machine.new", parent, lane)
	m, err := machine.New(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	id = tr.begin("machine.run", parent, lane)
	if tr != nil {
		ops = new(opCounts)
		a = &tracedApp{App: a, t: tr, ops: ops, parent: id, lane: lane}
	}
	res, err := m.RunContext(ctx, a)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s on %s: %w", app, cfg.Name(), err)
	}
	return m, res, ops, nil
}

// resultDigest hashes a run's simulated outputs: elapsed time, the
// breakdown and the per-processor statistics. Kernel counters are left
// out, so an optimisation that fires fewer events keeps the digest.
func resultDigest(res *machine.Result) (string, error) {
	b, err := json.Marshal(struct {
		Elapsed   sim.Time
		Breakdown stats.Breakdown
		Procs     []*stats.Proc
	}{res.Elapsed, res.Breakdown, res.Procs})
	if err != nil {
		return "", err
	}
	return textDigest(b), nil
}

func textDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sweepState is what the cold sweep leaves for the warm re-render.
type sweepState struct {
	dir  string
	text []byte
	sess *core.Session
}

// coldSweep renders Figure 3 through a core.Session over a fresh
// 2-worker runner with an empty on-disk cache, the path of
// `figures -exp fig3 -jobs 2 -cache-dir D`.
func coldSweep(seed int64, tr *tracer, parent int, s *sample) (any, error) {
	dir, err := os.MkdirTemp("", "latsim-bench-cache-")
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	exec := func(ctx context.Context, j runner.Job) (*machine.Result, error) {
		var res *machine.Result
		var ops *opCounts
		var err error
		if tr == nil {
			res, err = core.Exec(ctx, j)
		} else {
			id, lane := tr.execSpan(j.Key())
			_, res, ops, err = simulate(ctx, j.App, j.Cfg, j.Seed, tr, id, lane)
		}
		if err == nil {
			mu.Lock()
			s.work.add(res, ops)
			mu.Unlock()
		}
		return res, err
	}
	eng, err := runner.New(runner.Options{Workers: sweepWorkers, CacheDir: dir, Hooks: tr.hooks(parent)}, exec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer eng.Close()
	sess := core.NewSession(core.ScaleSmall)
	sess.Seed, sess.Engine = seed, eng
	var buf bytes.Buffer
	if err := sess.RunExperiment(&buf, "fig3", nil); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.digest = textDigest(buf.Bytes())
	s.executed = eng.Metrics().Executed
	return &sweepState{dir: dir, text: buf.Bytes(), sess: sess}, nil
}

// warmSweep re-renders Figure 3 from the cold sweep's cache directory in
// a second session; it must execute no job and print the same text.
func warmSweep(seed int64, tr *tracer, parent int, s *sample, keep any) error {
	st := keep.(*sweepState)
	defer os.RemoveAll(st.dir)
	eng, err := runner.New(runner.Options{Workers: sweepWorkers, CacheDir: st.dir}, core.Exec)
	if err != nil {
		return err
	}
	defer eng.Close()
	sess := core.NewSession(core.ScaleSmall)
	sess.Seed, sess.Engine = seed, eng
	var buf bytes.Buffer
	id := tr.begin("runner.warm", parent, 0)
	start := time.Now()
	err = sess.RunExperiment(&buf, "fig3", nil)
	s.warm = time.Since(start)
	tr.end(id)
	if err != nil {
		return err
	}
	m := eng.Metrics()
	s.warmCacheHits = m.CacheHits
	if m.Executed != 0 {
		return fmt.Errorf("warm re-render executed %d jobs, want 0", m.Executed)
	}
	if !bytes.Equal(buf.Bytes(), st.text) {
		return fmt.Errorf("warm re-render differs from the cold sweep")
	}
	return nil
}

// iterate runs one iteration of w: the timed part with tracing off (tr
// nil) or on, the live-heap measurement, then the untimed check. Panics
// count as a failed iteration.
func iterate(w *workload, seed int64, tr *tracer, iter int) (s *sample, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", w.name, p)
		}
	}()
	s = &sample{}
	seed = w.inputSeed(seed)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuTime()
	root := tr.startIter(iter, w.name)
	start := time.Now()
	keep, err := w.run(seed, tr, root, s)
	s.wall = time.Since(start)
	tr.end(root)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	s.allocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.liveMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(keep)
	if w.check != nil {
		if err := w.check(seed, tr, root, s, keep); err != nil {
			return nil, err
		}
	}
	return s, nil
}
