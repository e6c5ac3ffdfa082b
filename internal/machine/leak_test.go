package machine_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"latsim/internal/apps/lu"
	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/msync"
)

// countdownCtx reports cancellation from its n-th Err call on, so a run is
// canceled at a deterministic point mid-simulation. Its Done channel is
// non-nil only so that RunContext polls Err.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *countdownCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// deadlockApp has process 0 take a non-reentrant lock twice while every
// other process is still mid-body.
type deadlockApp struct{ lk *msync.Lock }

func (a *deadlockApp) Name() string { return "deadlock" }

func (a *deadlockApp) Setup(m *machine.Machine) error {
	a.lk = m.NewLock()
	return nil
}

func (a *deadlockApp) Worker(e *cpu.Env, pid, nprocs int) {
	if pid == 0 {
		e.Lock(a.lk)
		e.Lock(a.lk)
	}
	e.Compute(1 << 20)
}

// TestEarlyExitsLeakNoGoroutines runs 16-processor LU to a cancellation and
// to a watchdog trip, and a deadlocking app, several times each; every
// process goroutine must be gone once each run returns.
func TestEarlyExitsLeakNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	runs := []struct {
		name string
		mut  func(*config.Config)
		ctx  func() context.Context
		app  func() machine.App
		want string
	}{
		{"canceled", nil,
			func() context.Context { return &countdownCtx{Context: context.Background(), n: 4} },
			func() machine.App { return lu.New(lu.Scaled(24)) }, "canceled"},
		{"watchdog", func(c *config.Config) { c.MaxCycles = 20000 },
			context.Background,
			func() machine.App { return lu.New(lu.Scaled(24)) }, "watchdog"},
		{"deadlock", nil,
			context.Background,
			func() machine.App { return &deadlockApp{} }, "deadlock"},
	}
	for _, r := range runs {
		for i := 0; i < 3; i++ {
			cfg := config.Default()
			if r.mut != nil {
				r.mut(&cfg)
			}
			m, err := machine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.RunContext(r.ctx(), r.app())
			if err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("%s run %d: err = %v, want one naming %q", r.name, i, err, r.want)
			}
		}
	}
	// A stopped process goroutine has exited by the time Stop returns, so
	// the count is exact without waiting.
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the runs, %d before: process goroutines leaked", n, base)
	}
}
