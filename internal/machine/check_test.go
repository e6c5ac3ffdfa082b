package machine

import (
	"encoding/json"
	"fmt"
	"testing"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

// contentionApp is a workload built to stress the coherence protocol:
// overlapping read/write footprints force invalidation fan-out, dirty
// transfers and upgrades; the 512-line footprint overflows the 4 KB
// secondary cache so victim buffers and writebacks cycle; locks and a
// barrier add synchronization traffic.
func contentionApp() *testApp {
	var lk *msync.Lock
	var bar *msync.Barrier
	var base mem.Addr
	return &testApp{
		name: "contention",
		setup: func(m *Machine) error {
			lk = m.NewLock()
			bar = m.NewBarrier(m.Config().TotalProcesses())
			base = m.Alloc(512 * mem.LineSize)
			return nil
		},
		worker: func(e *cpu.Env, pid, n int) {
			for i := 0; i < 30; i++ {
				e.Read(base + mem.Addr(((pid*37+i*13)%512)*mem.LineSize))
				e.Compute(pid + 3)
				e.Write(base + mem.Addr(((pid*17+i*7)%512)*mem.LineSize))
				if i%7 == 0 {
					e.Lock(lk)
					e.Compute(2)
					e.Unlock(lk)
				}
			}
			e.Barrier(bar)
		},
	}
}

// TestCheckCleanAcrossVariants runs every consistency model with and
// without shared-data caching under the invariant checker and demands a
// clean bill: the simulator's own protocol must never trip the checker.
// It also pins the zero-perturbation contract — a checked run's Result
// is byte-identical to the unchecked run's apart from the check counter
// itself.
func TestCheckCleanAcrossVariants(t *testing.T) {
	type variant struct {
		model    config.Consistency
		cached   bool
		contexts int
		ways     int
	}
	var variants []variant
	for _, model := range []config.Consistency{config.SC, config.PC, config.WC, config.RC} {
		for _, cached := range []bool{true, false} {
			variants = append(variants, variant{model, cached, 1, 1})
		}
	}
	// Multi-context runs share the write buffer between contexts; the
	// FIFO assertion must relax to per-context order (regression: the
	// strict node-level assertion fired on legal cross-context
	// interleaving under SC), and every model's buffered releases and
	// fences meet writes from sibling contexts. Set-associative caches
	// pin the checker's Peek-only probing (regression: State's LRU touch
	// perturbed replacement).
	variants = append(variants,
		variant{config.SC, true, 2, 1},
		variant{config.PC, true, 2, 1},
		variant{config.WC, true, 2, 1},
		variant{config.RC, true, 2, 1},
		variant{config.SC, true, 1, 2},
		variant{config.RC, true, 1, 4})
	for _, v := range variants {
		t.Run(fmt.Sprintf("%s/cached=%v/ctx=%d/ways=%d", v.model, v.cached, v.contexts, v.ways), func(t *testing.T) {
			cfg := smallCfg(func(c *config.Config) {
				c.Model = v.model
				c.CacheShared = v.cached
				c.Contexts = v.contexts
				c.SecondaryWays = v.ways
			})
			cached := v.cached
			plain := mustRun(t, cfg, contentionApp())

			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			chk, err := m.EnableCheck()
			if err != nil {
				t.Fatal(err)
			}
			checked, err := m.Run(contentionApp())
			if err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
			if v := chk.Violations(); v != 0 {
				t.Fatalf("%d invariant violations; first: %v", v, chk.Err())
			}
			if cached && checked.InvariantChecks == 0 {
				t.Error("cached run performed no invariant checks; hooks are not wired")
			}
			if !cached && checked.InvariantChecks != 0 {
				t.Errorf("uncached run performed %d checks; there is no coherence traffic to verify",
					checked.InvariantChecks)
			}

			// Zero perturbation: identical timing and statistics.
			checked.InvariantChecks = 0
			a, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(checked)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("checked run's Result differs from the plain run's:\nplain:   %s\nchecked: %s", a, b)
			}
		})
	}
}

// TestEnableCheckPast64Procs pins the lifted cap: the checker no longer
// mirrors the sharer set in a uint64, so machines beyond 64 nodes run
// under -check (the former ValidateCheck rejected Procs > 64). The full
// 256-proc all-organizations sweep lives in dirorg_test.go.
func TestEnableCheckPast64Procs(t *testing.T) {
	cfg := smallCfg(func(c *config.Config) { c.Procs = 100 })
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableCheck(); err != nil {
		t.Fatalf("EnableCheck rejected Procs = 100: %v", err)
	}
	res, err := m.Run(contentionApp())
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantChecks == 0 {
		t.Error("100-proc checked run performed no invariant checks")
	}
}

func TestEnableCheckIdempotent(t *testing.T) {
	m, err := New(smallCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := m.EnableCheck()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.EnableCheck()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("EnableCheck built a second checker")
	}
}
