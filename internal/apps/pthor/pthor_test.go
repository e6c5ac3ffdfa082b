package pthor

import (
	"testing"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
	"latsim/internal/msync"
)

func run(t *testing.T, p Params, mut func(*config.Config)) (*App, *machine.Result) {
	t.Helper()
	cfg := config.Default()
	cfg.Procs = 4
	if mut != nil {
		mut(&cfg)
	}
	app := New(p)
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	return app, res
}

func small() Params {
	p := Default()
	p.Circuit.Gates = 600
	p.Circuit.Depth = 6
	p.Cycles = 3
	return p
}

// The distributed-time simulation must produce exactly the values of the
// golden synchronous simulator, for every configuration.
func verifyAgainstRef(t *testing.T, app *App, cycles int) {
	t.Helper()
	ref := NewRefSim(app.Circuit(), app.Params().Seed)
	for i := 0; i < cycles; i++ {
		ref.Cycle()
	}
	got := app.Values()
	mismatches := 0
	for g := range got {
		if got[g] != ref.Val[g] {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("gate %d (%v, level %d): pthor=%v ref=%v",
					g, app.Circuit().Gates[g].Kind, app.Circuit().Gates[g].Level, got[g], ref.Val[g])
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d gate values differ from the synchronous reference", mismatches, len(got))
	}
}

func TestMatchesSynchronousReference(t *testing.T) {
	app, _ := run(t, small(), nil)
	verifyAgainstRef(t, app, small().Cycles)
}

func TestMatchesReferenceUnderRCAndContexts(t *testing.T) {
	for _, tc := range []struct {
		model config.Consistency
		ctxs  int
	}{
		{config.RC, 1}, {config.SC, 2}, {config.RC, 4},
	} {
		app, _ := run(t, small(), func(c *config.Config) {
			c.Model = tc.model
			c.Contexts = tc.ctxs
		})
		verifyAgainstRef(t, app, small().Cycles)
	}
}

func TestPrefetchVariantMatchesReference(t *testing.T) {
	p := small()
	p.Prefetch = true
	app, res := run(t, p, func(c *config.Config) { c.Prefetch = true })
	verifyAgainstRef(t, app, p.Cycles)
	if res.Prefetches() == 0 {
		t.Error("no prefetches issued")
	}
}

func TestActivityEveryCycle(t *testing.T) {
	// Forced-toggle flip-flops keep the circuit switching: evaluations
	// must be spread over cycles, not just the initial settle.
	app, _ := run(t, small(), nil)
	initialSettle := int64(len(app.Circuit().Comb))
	if app.Evals() <= initialSettle {
		t.Errorf("evals = %d, want more than the %d initial-settle evaluations", app.Evals(), initialSettle)
	}
}

func TestLocksAndBarriersUsed(t *testing.T) {
	_, res := run(t, small(), nil)
	if res.Locks() == 0 {
		t.Error("task-queue locks never used")
	}
	if res.Barriers() == 0 {
		t.Error("no barriers")
	}
}

func TestDeterminism(t *testing.T) {
	_, r1 := run(t, small(), nil)
	_, r2 := run(t, small(), nil)
	if r1.Elapsed != r2.Elapsed || r1.Events != r2.Events {
		t.Errorf("nondeterministic: %d/%d vs %d/%d", r1.Elapsed, r1.Events, r2.Elapsed, r2.Events)
	}
}

func TestRCFasterThanSC(t *testing.T) {
	_, sc := run(t, small(), func(c *config.Config) { c.Model = config.SC })
	_, rc := run(t, small(), func(c *config.Config) { c.Model = config.RC })
	if rc.Elapsed >= sc.Elapsed {
		t.Errorf("RC (%d) not faster than SC (%d)", rc.Elapsed, sc.Elapsed)
	}
}

func TestCircuitGeneratorShape(t *testing.T) {
	c := GenerateCircuit(CircuitParams{Gates: 2000, Depth: 10, FFFrac: 0.1, Seed: 7})
	if len(c.Gates) != 2000 {
		t.Fatalf("gates = %d", len(c.Gates))
	}
	if len(c.FFs) < 150 || len(c.FFs) > 250 {
		t.Errorf("FF count = %d, want ~200", len(c.FFs))
	}
	// DAG property: combinational inputs come from strictly earlier
	// levels or flip-flops (except zero-delay handled by relaxation —
	// still must be earlier levels structurally).
	for _, g := range c.Comb {
		gt := &c.Gates[g]
		for _, in := range gt.In {
			if in < 0 {
				continue
			}
			src := &c.Gates[in]
			if src.Kind != FF && src.Level >= gt.Level {
				t.Fatalf("gate %d (level %d) reads gate %d (level %d): not a DAG",
					g, gt.Level, in, src.Level)
			}
		}
	}
	// Fanout lists consistent with inputs.
	count := 0
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanout {
			found := false
			for _, in := range c.Gates[f].In {
				if int(in) == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("gate %d lists %d in fanout but is not its input", i, f)
			}
			count++
		}
	}
	if count == 0 {
		t.Fatal("no edges")
	}
}

func TestRefSimTogglePropagates(t *testing.T) {
	c := GenerateCircuit(CircuitParams{Gates: 400, Depth: 4, FFFrac: 0.2, Seed: 3})
	r := NewRefSim(c, 3)
	before := append([]bool(nil), r.Val...)
	r.Cycle()
	changed := 0
	for i := range before {
		if before[i] != r.Val[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("nothing changed after a clock cycle despite toggle stimulus")
	}
}

// countingApp counts the operations PTHOR's processes submit.
type countingApp struct {
	*App
	ops uint64
}

func (c *countingApp) Setup(m *machine.Machine) error {
	if err := c.App.Setup(m); err != nil {
		return err
	}
	for _, p := range m.Processors() {
		p.SetTrace(func(int, cpu.TraceKind, mem.Addr, int, *msync.Lock, *msync.Barrier) { c.ops++ })
	}
	return nil
}

// TestIdlePollsDoNotResume guards the coroutine handoff: on 64 processors
// most of PTHOR's operations are out-of-work processors polling the task
// queues, and the idler's Poll step and the push and pop regions run them
// without resuming the process. The processes are resumed at most once
// per four submitted operations (11% on this circuit; 70% when each poll
// resumed its process).
func TestIdlePollsDoNotResume(t *testing.T) {
	p := Default()
	p.Circuit.Gates, p.Circuit.Depth, p.Cycles = 3000, 12, 2
	cfg := config.Default()
	cfg.Procs = 64
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app := &countingApp{App: New(p)}
	if _, err := m.Run(app); err != nil {
		t.Fatal(err)
	}
	var resumes uint64
	for _, p := range m.Processors() {
		resumes += p.Resumes()
	}
	if resumes == 0 || resumes > app.ops/4 {
		t.Errorf("%d resumes for %d operations (%.1f%%); want at most 25%%",
			resumes, app.ops, 100*float64(resumes)/float64(app.ops))
	}
}
