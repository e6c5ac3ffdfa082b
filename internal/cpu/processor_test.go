package cpu_test

import (
	"testing"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/sim"
)

// app adapts a setup and a worker closure to machine.App.
type app struct {
	setup  func(m *machine.Machine)
	worker func(e *cpu.Env, pid int)
}

func (a *app) Name() string { return "cpu-test" }

func (a *app) Setup(m *machine.Machine) error {
	if a.setup != nil {
		a.setup(m)
	}
	return nil
}

func (a *app) Worker(e *cpu.Env, pid, nprocs int) { a.worker(e, pid) }

func run(t *testing.T, procs int, a *app) *machine.Result {
	t.Helper()
	cfg := config.Default()
	cfg.Procs = procs
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestComputeTakesFastPath: on a lone processor nothing else is pending,
// so compute blocks complete by advancing the clock inline, and only the
// depth bound turns every (MaxInlineDepth+1)-th one into a kernel event.
func TestComputeTakesFastPath(t *testing.T) {
	for _, n := range []int{1, 32, 33, 1000} {
		res := run(t, 1, &app{worker: func(e *cpu.Env, pid int) {
			for i := 0; i < n; i++ {
				e.Compute(5)
			}
		}})
		k := res.Kernel
		if want := 5 * n; res.Elapsed != sim.Time(want) {
			t.Errorf("n=%d: Elapsed = %d, want %d", n, res.Elapsed, want)
		}
		// The start event, then one event per exhausted inline budget.
		if want := uint64(1 + n/(cpu.MaxInlineDepth+1)); k.Fired != want {
			t.Errorf("n=%d: Fired = %d, want %d", n, k.Fired, want)
		}
		// Every compute block ends in an event or an advance.
		if k.Fired+k.Advances != uint64(n+1) {
			t.Errorf("n=%d: Fired+Advances = %d+%d, want %d", n, k.Fired, k.Advances, n+1)
		}
	}
}

// TestCompletionDoesNotAdvanceClock: a memory-system completion re-enters
// the context while its caller still has work at the current instant, so
// the compute that follows a remote read is scheduled as an event, not
// completed inline.
func TestCompletionDoesNotAdvanceClock(t *testing.T) {
	var remote mem.Addr
	res := run(t, 2, &app{
		setup: func(m *machine.Machine) { remote = m.AllocOnNode(mem.LineSize, 1) },
		worker: func(e *cpu.Env, pid int) {
			if pid != 0 {
				return
			}
			e.Compute(5)
			e.Read(remote)
			for i := 0; i < 3; i++ {
				e.Compute(5)
			}
		},
	})
	if res.Elapsed != 92 {
		t.Errorf("Elapsed = %d, want 92", res.Elapsed)
	}
	if res.Kernel.Advances != 3 {
		t.Errorf("Advances = %d, want 3", res.Kernel.Advances)
	}
}
