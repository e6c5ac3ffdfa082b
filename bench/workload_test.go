package main

import "testing"

// TestMP3DIterationMatchesStoredDigest runs one mp3d-rcpf-4ctx
// iteration at seed 1 and checks its outputs against bench/workloads.json.
func TestMP3DIterationMatchesStoredDigest(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("mp3d-rcpf-4ctx")
	if err != nil {
		t.Fatal(err)
	}
	s, err := iterate(w, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := sp.params[w.name].Digest; s.digest != want {
		t.Errorf("seed-1 digest %s, bench/workloads.json has %s", s.digest, want)
	}
	if s.wall <= 0 || s.allocMB <= 0 || s.liveMB <= 0 || s.work.reads == 0 {
		t.Errorf("iteration measured nothing: %+v", s)
	}
}

// TestDeclaredMetricsAreMeasured checks that every metric BENCHMARK.json
// declares is one the benchmark computes, so a run can print them all.
func TestDeclaredMetricsAreMeasured(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&timedRun{}, nil)
	for _, m := range sp.EndToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not computed", m.Name)
		}
	}
	for _, w := range workloads {
		layer := layerMetrics(w, &traced{shares: cpuShares(nil)}, 1, nil)
		for _, m := range sp.PerLayer {
			if _, ok := layer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s is not computed", w.name, m.Name)
			}
		}
	}
}
