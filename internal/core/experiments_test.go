package core

import (
	"context"
	"io"
	"testing"

	"latsim/internal/machine"
	"latsim/internal/runner"
	"latsim/internal/stats"
)

// TestExperimentRequestsCoverRender checks that ExperimentRequests lists
// every simulation an experiment renders from: once the requests have
// run as one batch, rendering the experiment executes nothing more. A
// fake ExecFunc stands in for the simulator, so the test checks the job
// lists, not the results.
func TestExperimentRequestsCoverRender(t *testing.T) {
	exec := func(_ context.Context, j runner.Job) (*machine.Result, error) {
		res := &machine.Result{AppName: j.App, Cfg: j.Cfg, Elapsed: 1000}
		res.Breakdown.Time[stats.Busy] = 1000
		return res, nil
	}
	for _, id := range append(append([]string(nil), ExperimentIDs...), ExtraExperimentIDs...) {
		eng, err := runner.New(runner.Options{Workers: 2}, exec)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(ScaleSmall)
		s.Engine = eng
		reqs, err := s.ExperimentRequests(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, err := s.RunBatch(reqs); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		before := s.Metrics().Executed
		if err := s.RunExperiment(io.Discard, id, nil); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := s.Metrics().Executed - before; n != 0 {
			t.Errorf("%s: render executed %d jobs beyond its %d requests", id, n, len(reqs))
		}
		eng.Close()
	}
}
