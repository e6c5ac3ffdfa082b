package machine_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"latsim/internal/apps/lu"
	"latsim/internal/config"
	"latsim/internal/machine"
	"latsim/internal/obs"
)

func obsCfg(mut func(*config.Config)) config.Config {
	c := config.Default()
	c.Procs = 4
	if mut != nil {
		mut(&c)
	}
	return c
}

func runObs(t *testing.T, cfg config.Config, enable bool) *machine.Result {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if enable {
		m.EnableObs(obs.Options{})
	}
	res, err := m.Run(lu.New(lu.Scaled(24)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestObsZeroPerturbation is the subsystem's core contract: enabling the
// recorder must change neither the simulated timing nor the kernel event
// count of a run.
func TestObsZeroPerturbation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*config.Config)
	}{
		{"SC", nil},
		{"RC-4ctx", func(c *config.Config) { c.Model = config.RC; c.Contexts = 4 }},
		{"RC-pf", func(c *config.Config) { c.Model = config.RC; c.Prefetch = true }},
		{"mesh", func(c *config.Config) { c.MeshNetwork = true }},
		{"nocache", func(c *config.Config) { c.CacheShared = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := runObs(t, obsCfg(tc.mut), false)
			on := runObs(t, obsCfg(tc.mut), true)
			if off.Elapsed != on.Elapsed {
				t.Errorf("obs changed timing: %d vs %d cycles", off.Elapsed, on.Elapsed)
			}
			if off.Events != on.Events {
				t.Errorf("obs changed event count: %d vs %d", off.Events, on.Events)
			}
			if off.Obs != nil {
				t.Error("disabled run carries a report")
			}
			if on.Obs == nil {
				t.Fatal("enabled run has no report")
			}
		})
	}
}

// TestObsReportConsistency cross-checks the report against the machine's
// own statistics on one representative run.
func TestObsReportConsistency(t *testing.T) {
	cfg := obsCfg(func(c *config.Config) { c.Model = config.RC; c.Contexts = 2 })
	res := runObs(t, cfg, true)
	rep := res.Obs

	if rep.Elapsed != uint64(res.Elapsed) || rep.Procs != cfg.Procs {
		t.Fatalf("report header %d/%d vs run %d/%d", rep.Elapsed, rep.Procs, res.Elapsed, cfg.Procs)
	}
	// The bucket series must sum to the same machine-wide cycle totals the
	// stats subsystem accumulated.
	var agg [len(res.Procs[0].Time)]uint64
	for i := range res.Procs {
		for b, v := range res.Procs[i].Time {
			agg[b] += uint64(v)
		}
	}
	for b, s := range rep.BucketCycles {
		var got uint64
		for _, v := range s.Values {
			got += v
		}
		if got != agg[b] {
			t.Errorf("series %q sums to %d, stats say %d", s.Name, got, agg[b])
		}
	}
	// Every processor's timeline tiles [0, its accounted total).
	for _, tr := range rep.Tracks {
		var cursor uint64
		for _, s := range tr.Segments {
			if s[1] != cursor {
				t.Fatalf("proc %d timeline has a gap at %d (segment starts %d)", tr.Proc, cursor, s[1])
			}
			cursor += s[2]
		}
		if cursor != uint64(res.Procs[tr.Proc].Total()) {
			t.Errorf("proc %d timeline covers %d cycles, stats say %d",
				tr.Proc, cursor, res.Procs[tr.Proc].Total())
		}
	}
	// Read misses happened, so the histograms must have observations.
	var reads uint64
	if h := rep.Hist("read_miss/local"); h != nil {
		reads += h.Count
	}
	if h := rep.Hist("read_miss/remote"); h != nil {
		reads += h.Count
	}
	if reads == 0 {
		t.Error("no read-miss latency observations")
	}
}

// TestObsDeterministicAcrossRuns re-runs the same configuration and
// requires bit-identical reports (the simulator is deterministic, and the
// recorder must not introduce map-order or allocation-order dependence).
func TestObsDeterministicAcrossRuns(t *testing.T) {
	cfg := obsCfg(func(c *config.Config) { c.MeshNetwork = true })
	a := runObs(t, cfg, true).Obs
	b := runObs(t, cfg, true).Obs
	if !reflect.DeepEqual(a, b) {
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		t.Errorf("reports differ across identical runs:\n%.300s\nvs\n%.300s", aj, bj)
	}
}

// benchRun is the obs-overhead workload: a mid-size LU on the 16-proc
// base machine (the Figure 2 cached-SC configuration).
// `go test -bench 'RunObs|RunSpansOn' -benchtime 3x -benchmem ./internal/machine`
// measures the on-vs-off delta.
func benchRun(b *testing.B, enable bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := config.Default()
		m, err := machine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if enable {
			m.EnableObs(obs.Options{})
		}
		if _, err := m.Run(lu.New(lu.Scaled(96))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunObsOff(b *testing.B) { benchRun(b, false) }
func BenchmarkRunObsOn(b *testing.B)  { benchRun(b, true) }
