package core

import (
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"latsim/internal/apps/lu"
	"latsim/internal/config"
	"latsim/internal/machine"
)

// TestParallelDeterminism guards the runner's parallel-safety invariant:
// N concurrent executions of the same (app, config) job — each on its
// own Machine, as the worker pool runs them — must produce byte-identical
// Result JSON. Run under -race this also proves the simulations share no
// mutable state.
func TestParallelDeterminism(t *testing.T) {
	const n = 6
	cfg := Base()
	cfg.Procs = 8
	run := func() []byte {
		m, err := machine.New(cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		res, err := m.Run(lu.New(lu.Scaled(48)))
		if err != nil {
			t.Error(err)
			return nil
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
			return nil
		}
		return b
	}
	outs := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = run()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if string(outs[i]) != string(outs[0]) {
			t.Fatalf("concurrent run %d diverged from run 0:\n%s\n%s", i, outs[i], outs[0])
		}
	}
}

// TestParallelFigureMatchesSequential is the -jobs=1 vs -jobs=N
// acceptance check in miniature: the same figure regenerated by a
// single-worker session and a many-worker session must serialize to the
// same bytes.
func TestParallelFigureMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale simulations; skipped in -short")
	}
	render := func(jobs int) []byte {
		s := NewSession(ScaleSmall)
		s.Jobs = jobs
		defer s.Close()
		f, err := s.Figure("fig3")
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := render(1)
	par := render(4 * runtime.GOMAXPROCS(0))
	if string(seq) != string(par) {
		t.Fatalf("parallel figure differs from sequential:\n%s\n%s", par, seq)
	}
}

// TestWarmCacheReproducesColdRun checks the persistent cache end to end
// through the Session: a second session over the same cache directory
// must re-simulate nothing and reproduce Table 2 exactly (including the
// run-length medians, which ride on the stats histogram round trip).
func TestWarmCacheReproducesColdRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale simulations; skipped in -short")
	}
	dir := t.TempDir()

	cold := NewSession(ScaleSmall)
	cold.CacheDir = dir
	coldRows, err := cold.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if m := cold.Metrics(); m.Executed == 0 || m.CacheHits != 0 {
		t.Fatalf("cold metrics: %+v", m)
	}
	cold.Close()

	warm := NewSession(ScaleSmall)
	warm.CacheDir = dir
	warmRows, err := warm.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if m := warm.Metrics(); m.Executed != 0 || m.CacheHits == 0 {
		t.Fatalf("warm run re-simulated: %+v", m)
	}
	warm.Close()

	if !reflect.DeepEqual(coldRows, warmRows) {
		t.Fatalf("warm Table 2 differs:\n cold: %+v\n warm: %+v", coldRows, warmRows)
	}
}

// TestRunBatchOrderAndDedup covers the batch entry point the figures use.
func TestRunBatchOrderAndDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale simulations; skipped in -short")
	}
	s := NewSession(ScaleSmall)
	defer s.Close()
	rc := Base()
	rc.Model = config.RC
	reqs := []Request{
		{App: "LU", Cfg: Base()},
		{App: "LU", Cfg: rc},
		{App: "LU", Cfg: Base()}, // duplicate dedups onto the first
	}
	res, err := s.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0] != res[2] || res[0] == res[1] {
		t.Fatalf("unexpected batch results: %v", res)
	}
	if m := s.Metrics(); m.Executed != 2 || m.Deduped != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}
