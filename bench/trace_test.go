package main

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"latsim/internal/runner"
)

// TestTracerHooksConcurrent drives the sweep's job-lifecycle hooks from
// several workers at once, as the runner does, and checks every job gets
// its own lane and closed exec and store spans, plus a queue span when
// Queued ran before the job started.
func TestTracerHooksConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.startIter(1, "sweep")
	h := tr.hooks(root)
	const jobs = 8
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(key string, late bool) {
			defer wg.Done()
			var j runner.Job
			if late {
				// The runner may start a job before its Queued hook runs.
				h.AttemptStart(key, j, 1)
				h.Queued(key, j)
			} else {
				h.Queued(key, j)
				h.AttemptStart(key, j, 1)
			}
			exec, lane := tr.execSpan(key)
			tr.end(tr.begin("machine.run", exec, lane))
			h.AttemptDone(key, j, 1, nil)
			h.Finish(key, j, nil, false)
		}(fmt.Sprint("job", i), i%2 == 1)
	}
	wg.Wait()
	tr.end(root)

	byName, lanes := map[string]int{}, map[int]bool{}
	for _, s := range tr.spans {
		byName[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %s (%d) ends before it starts", s.Name, s.ID)
		}
		if s.Name == "runner.exec" {
			lanes[s.Lane] = true
		}
		if s.Name == "machine.run" && tr.spans[s.Parent-1].Name != "runner.exec" {
			t.Errorf("machine.run parent is %s", tr.spans[s.Parent-1].Name)
		}
	}
	for name, want := range map[string]int{"runner.queue": jobs / 2, "runner.exec": jobs, "runner.store": jobs, "machine.run": jobs} {
		if byName[name] != want {
			t.Errorf("%d %s spans, want %d", byName[name], name, want)
		}
	}
	if len(lanes) != jobs {
		t.Errorf("%d lanes for %d jobs", len(lanes), jobs)
	}
}

// TestSpanTotalsSelfTime checks that machine.run is charged its self
// time, without its apps.setup child.
func TestSpanTotalsSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Iter: 1, Name: "lu-sc", Start: 0, End: 10 * time.Second},
		{ID: 2, Parent: 1, Iter: 1, Name: "machine.run", Start: 1 * time.Second, End: 9 * time.Second},
		{ID: 3, Parent: 2, Iter: 1, Name: "apps.setup", Start: 1 * time.Second, End: 3 * time.Second},
	}
	got := spanTotals(spans)[1]
	if got["machine.run"] != 6*time.Second || got["apps.setup"] != 2*time.Second {
		t.Errorf("totals = %v", got)
	}
}
