package machine

import (
	"runtime"
	"testing"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

// stallRounds is a workload whose every round stalls each process on the
// paths a context waits through as itself: it writes its own four lines
// and prefetches four more into one-entry buffers, takes and releases a
// shared lock (a fence at each end under WC) and meets the others at a
// barrier.
func stallRounds(rounds int) *testApp {
	var lk *msync.Lock
	var bar *msync.Barrier
	var lines [][8]mem.Addr
	return &testApp{
		name: "stalls",
		setup: func(m *Machine) error {
			n := m.Config().TotalProcesses()
			lk = m.NewLock()
			bar = m.NewBarrier(n)
			lines = make([][8]mem.Addr, n)
			for pid := range lines {
				for i := range lines[pid] {
					lines[pid][i] = m.Alloc(mem.LineSize)
				}
			}
			return nil
		},
		worker: func(e *cpu.Env, pid, n int) {
			own := &lines[pid]
			for r := 0; r < rounds; r++ {
				for _, a := range own[:4] {
					e.Write(a)
				}
				for _, a := range own[4:] {
					e.Prefetch(a)
				}
				e.Lock(lk)
				e.Unlock(lk)
				e.Barrier(bar)
			}
		},
	}
}

// TestStallsAllocateNothingPerRound: a write or prefetch that finds its
// buffer full, a WC fence, a lock grant and a barrier arrival wait through
// the context's own continuations, so 40 more rounds of them allocate
// nothing more. Each count is the fewest of three runs at GOMAXPROCS(1),
// which discards what the runtime allocates in the background; the slack
// covers the rest of it.
func TestStallsAllocateNothingPerRound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const slack = 20
	for _, model := range []config.Consistency{config.RC, config.WC, config.PC} {
		cfg := smallCfg(func(c *config.Config) {
			c.Model = model
			c.Contexts = 2
			c.WriteBufferDepth = 1
			// One-entry buffers fill at once; a free prefetch issue cycle
			// makes prefetches come faster than the buffer's 2-cycle
			// check can drain them.
			c.PrefetchBufferDepth = 1
			c.PrefetchIssueCycles = 0
		})
		few, many := leastMallocs(t, cfg, 20), leastMallocs(t, cfg, 60)
		t.Logf("%v: %d objects for 20 rounds, %d for 60", model, few, many)
		if many > few+slack {
			t.Errorf("%v: 40 more rounds allocate %d more objects, want at most %d", model, many-few, slack)
		}
	}
}

// leastMallocs returns the fewest heap objects of three runs of rounds
// rounds of stallRounds, machine construction included.
func leastMallocs(t *testing.T, cfg config.Config, rounds int) uint64 {
	t.Helper()
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(t, cfg, stallRounds(rounds))
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; i == 0 || n < least {
			least = n
		}
	}
	return least
}
