package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

// randomApp is a property-test workload: every process runs a seeded
// random mix of reads, writes, computes, prefetches and critical sections
// over a shared region, with barrier-separated phases, and then waits for
// a flag: process 0 writes the flag's line and sets the flag natively,
// while the others read the line and spin until they see it. It
// exercises the full machine under every technique combination.
type randomApp struct {
	seed   int64
	phases int
	ops    int
	// queued runs each phase inside one cpu.Env region, so its locks,
	// spins and barrier drain the queue in the middle of the region. The
	// only native state is the private rng, which meets the region
	// contract.
	queued bool
	// polled runs the flag wait as a cpu.Env.Poll step, which reads the
	// flag when the plain loop does.
	polled bool

	base     mem.Addr
	flagLine mem.Addr
	flag     bool
	locks    []*msync.Lock
	bar      *msync.Barrier
}

func (a *randomApp) Name() string { return "random" }

func (a *randomApp) Setup(m *Machine) error {
	a.base = m.Alloc(512 * mem.LineSize)
	a.flagLine = m.Alloc(mem.LineSize)
	for i := 0; i < 4; i++ {
		a.locks = append(a.locks, m.NewLock())
	}
	a.bar = m.NewBarrier(m.Config().TotalProcesses())
	return nil
}

func (a *randomApp) Worker(e *cpu.Env, pid, nprocs int) {
	rng := rand.New(rand.NewSource(a.seed + int64(pid)*7919))
	for ph := 0; ph < a.phases; ph++ {
		if a.queued {
			e.Queue()
		}
		for op := 0; op < a.ops; op++ {
			addr := a.base + mem.Addr(rng.Intn(512)*mem.LineSize)
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				e.Read(addr)
			case 4, 5:
				e.Write(addr)
			case 6:
				e.Compute(rng.Intn(30) + 1)
			case 7:
				if rng.Intn(2) == 0 {
					e.Prefetch(addr)
				} else {
					e.PrefetchExcl(addr)
				}
			case 8:
				lk := a.locks[rng.Intn(len(a.locks))]
				e.Lock(lk)
				e.Read(addr)
				e.Compute(5)
				e.Write(addr)
				e.Unlock(lk)
			case 9:
				e.SpinWait(rng.Intn(10) + 1)
			}
		}
		e.Barrier(a.bar)
		if a.queued {
			e.Wait()
		}
	}
	switch {
	case pid == 0:
		e.Compute(rng.Intn(200) + 1)
		e.Write(a.flagLine)
		a.flag = true
	case a.polled:
		e.Poll(func() bool {
			if a.flag {
				return true
			}
			e.Read(a.flagLine)
			e.SpinWait(3)
			return false
		})
	default:
		for !a.flag {
			e.Read(a.flagLine)
			e.SpinWait(3)
		}
	}
	e.Barrier(a.bar)
}

// configMatrix is the technique combinations the random programs run
// under.
var configMatrix = []struct {
	name string
	mut  func(*config.Config)
}{
	{"SC", func(c *config.Config) {}},
	{"RC", func(c *config.Config) { c.Model = config.RC }},
	{"nocache", func(c *config.Config) { c.CacheShared = false }},
	{"SC-2ctx", func(c *config.Config) { c.Contexts = 2 }},
	{"RC-4ctx16", func(c *config.Config) { c.Model = config.RC; c.Contexts = 4; c.SwitchPenalty = 16 }},
	{"RC-egrant", func(c *config.Config) { c.Model = config.RC; c.ExclusiveGrant = true }},
	{"SC-tinybuf", func(c *config.Config) { c.WriteBufferDepth = 1; c.PrefetchBufferDepth = 1 }},
	{"RC-fullcache", func(c *config.Config) { c.Model = config.RC; *c = c.FullCaches() }},
	{"SC-mesh", func(c *config.Config) { c.MeshNetwork = true }},
	{"PC-assoc", func(c *config.Config) { c.Model = config.PC; c.SecondaryWays = 2 }},
	{"WC", func(c *config.Config) { c.Model = config.WC }},
}

// runRandom runs app on a 4-processor machine under mut and checks that
// every processor's buckets sum to its finish time.
func runRandom(t *testing.T, mut func(*config.Config), app *randomApp) *Result {
	t.Helper()
	cfg := config.Default()
	cfg.Procs = 4
	cfg.MaxCycles = 50_000_000
	mut(&cfg)
	if !cfg.CacheShared {
		cfg.Prefetch = false
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Processors() {
		if got, want := res.Procs[i].Total(), p.DoneAt(); got != want {
			t.Errorf("proc %d: bucket sum %d != finish %d", i, got, want)
		}
	}
	return res
}

// TestRandomProgramsAcrossConfigMatrix runs random programs under every
// technique combination and checks machine-level invariants: the run
// completes, coherence invariants hold (checked inside Run), every
// processor's buckets sum to its finish time, and the run is
// deterministic.
func TestRandomProgramsAcrossConfigMatrix(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		for _, mc := range configMatrix {
			name := fmt.Sprintf("%s/seed%d", mc.name, seed)
			t.Run(name, func(t *testing.T) {
				run := func() *Result {
					return runRandom(t, mc.mut, &randomApp{seed: seed, phases: 3, ops: 120})
				}
				r1 := run()
				r2 := run()
				if r1.Elapsed != r2.Elapsed || r1.Events != r2.Events {
					t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)",
						r1.Elapsed, r1.Events, r2.Elapsed, r2.Events)
				}
			})
		}
	}
}

// TestPolledMatchesUnpolled: a Poll step changes no simulated result. The
// random programs, with their flag wait run as a Poll step, must match
// the runs with the plain loop exactly under every technique
// combination.
func TestPolledMatchesUnpolled(t *testing.T) {
	matchesPlain(t, func(a *randomApp) { a.polled = true })
}

// TestQueuedMatchesUnqueued: a region changes no simulated result. The
// random programs, run with each phase inside one region, must match
// their unqueued runs exactly under every technique combination.
func TestQueuedMatchesUnqueued(t *testing.T) {
	matchesPlain(t, func(a *randomApp) { a.queued = true })
}

// matchesPlain runs the random programs as they are and as set changes
// them, under every technique combination and both seeds, and requires
// equal Elapsed, Breakdown, Procs and Kernel.
func matchesPlain(t *testing.T, set func(*randomApp)) {
	for _, seed := range []int64{3, 17} {
		for _, mc := range configMatrix {
			t.Run(fmt.Sprintf("%s/seed%d", mc.name, seed), func(t *testing.T) {
				plain := runRandom(t, mc.mut, &randomApp{seed: seed, phases: 3, ops: 120})
				app := &randomApp{seed: seed, phases: 3, ops: 120}
				set(app)
				changed := runRandom(t, mc.mut, app)
				if plain.Elapsed != changed.Elapsed {
					t.Errorf("Elapsed: plain %d, changed %d", plain.Elapsed, changed.Elapsed)
				}
				if !reflect.DeepEqual(plain.Breakdown, changed.Breakdown) {
					t.Errorf("Breakdown: plain %+v, changed %+v", plain.Breakdown, changed.Breakdown)
				}
				if !reflect.DeepEqual(plain.Procs, changed.Procs) {
					t.Errorf("Procs differ:\nplain   %+v\nchanged %+v", plain.Procs, changed.Procs)
				}
				if plain.Kernel != changed.Kernel {
					t.Errorf("Kernel: plain %+v, changed %+v", plain.Kernel, changed.Kernel)
				}
			})
		}
	}
}
