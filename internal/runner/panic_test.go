package runner

import (
	"context"
	"strings"
	"testing"

	"latsim/internal/cpu"
	"latsim/internal/machine"
)

// panicApp's processes panic from inside the application's own code.
type panicApp struct{}

func (panicApp) Name() string                 { return "panicker" }
func (panicApp) Setup(*machine.Machine) error { return nil }
func (panicApp) Worker(e *cpu.Env, pid, nprocs int) {
	e.Compute(10)
	explodeInWorker(pid)
}

func explodeInWorker(pid int) {
	if pid == 1 {
		panic("worker corrupted its data")
	}
}

// TestProcessPanicNamesWorkerFrame checks that a panic inside an
// application process reaches the runner's error with the process's own
// stack, not only the kernel's re-panic site.
func TestProcessPanicNamesWorkerFrame(t *testing.T) {
	r, err := New(Options{Workers: 1}, func(ctx context.Context, j Job) (*machine.Result, error) {
		m, err := machine.New(j.Cfg)
		if err != nil {
			return nil, err
		}
		return m.RunContext(ctx, panicApp{})
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Submit(context.Background(), testJob(0)).Wait()
	if err == nil {
		t.Fatal("panicking worker reported success")
	}
	for _, want := range []string{"worker corrupted its data", "runner.explodeInWorker", "runner.panicApp.Worker"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
}
