package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestMatrix(t *testing.T) {
	entries := twinMatrix()
	if len(entries) < 13 {
		t.Fatalf("full matrix has %d entries, want >= 13", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.Label] {
			t.Errorf("duplicate label %q", e.Label)
		}
		seen[e.Label] = true
		if err := e.Cfg.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", e.Label, err)
		}
	}
	for _, want := range []string{"nocache-SC", "SC", "RC", "SC+pf", "RC+pf", "RC+pf-4ctx/sw4"} {
		if !seen[want] {
			t.Errorf("matrix is missing %q", want)
		}
	}
	if base := Base(); !seen["SC"] {
		t.Fatal("no SC entry")
	} else {
		for _, e := range entries {
			if e.Label == "SC" && e.Cfg != base {
				t.Errorf("SC entry is %s, want the base config", e.Cfg.Name())
			}
		}
	}
}

func TestReducedIsSubset(t *testing.T) {
	full := map[string]bool{}
	for _, e := range twinMatrix() {
		full[e.Label] = true
	}
	red := TwinReduced()
	if len(red) == 0 || len(red) >= len(twinMatrix()) {
		t.Fatalf("reduced matrix has %d entries, want a strict non-empty subset", len(red))
	}
	for _, e := range red {
		if !full[e.Label] {
			t.Errorf("reduced entry %q not in the full matrix", e.Label)
		}
	}
}

func TestSweepSpace(t *testing.T) {
	points := sweepSpace()
	if len(points) < 1000 {
		t.Fatalf("sweep explores %d configurations, want >= 1000", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.Name] {
			t.Errorf("duplicate sweep point %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Cfg.Validate(); err != nil {
			t.Errorf("%s: invalid config: %v", p.Name, err)
		}
		if p.Cost < 0 {
			t.Errorf("%s: negative cost %f", p.Name, p.Cost)
		}
	}
}

func TestCostOfMonotone(t *testing.T) {
	base := Base()
	cheap := costOf(&base)
	big := base
	big.Contexts = 4
	big.WriteBufferDepth = 32
	big.MaxOutstandingWrites = 8
	big.Lat.Wire = 8
	if c := costOf(&big); c <= cheap {
		t.Errorf("more hardware costs %f, base costs %f", c, cheap)
	}
}

func TestParetoFrontier(t *testing.T) {
	points := []sweepPoint{
		{Name: "a", Cost: 0, MeanTotal: 100},
		{Name: "b", Cost: 1, MeanTotal: 90},
		{Name: "dominated", Cost: 2, MeanTotal: 95},
		{Name: "c", Cost: 3, MeanTotal: 80},
		{Name: "tie-worse", Cost: 3, MeanTotal: 85},
	}
	f := paretoFrontier(points)
	want := []string{"a", "b", "c"}
	if len(f) != len(want) {
		t.Fatalf("frontier has %d points (%v), want %v", len(f), f, want)
	}
	for i, p := range f {
		if p.Name != want[i] {
			t.Errorf("frontier[%d] = %q, want %q", i, p.Name, want[i])
		}
	}
}

func TestReportCheck(t *testing.T) {
	r := &twinReport{Gates: defaultTwinGates(), MeanBucketMAE: 14.9, MeanTotalErr: 9.9}
	if !r.Check() {
		t.Error("report inside the gates should pass")
	}
	r.MeanTotalErr = 10.1
	if r.Check() {
		t.Error("total error over the gate should fail")
	}
	r.MeanTotalErr = 5
	r.MeanBucketMAE = 15.1
	if r.Check() {
		t.Error("bucket MAE over the gate should fail")
	}
}

// TestTwinBenchOneMethod: the speed record times nine fresh base
// simulations whatever the session's cache holds. BENCH_twin.json comes
// from a cold session, which executes the whole matrix; a session that
// has executed nothing (the state of a fully cache-warm run) gives a
// record with the same fields. Each record is the median of nine
// samples, between their min and max. The twin side is a median too: of
// every entry's batch means, not a mean of per-entry figures. No
// wall-clock bound.
func TestTwinBenchOneMethod(t *testing.T) {
	if testing.Short() {
		t.Skip("times nine simulations")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_twin.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Bench json.RawMessage }
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	fresh := NewSession(ScaleSmall)
	defer fresh.Close()
	if n := fresh.Metrics().Executed; n != 0 {
		t.Fatalf("fresh session executed %d jobs", n)
	}
	rep := &twinReport{Entries: []twinEntryResult{
		{batchNS: [3]int64{4000, 9000, 5000}},
		{batchNS: [3]int64{6000, 7000, 8000}},
		{batchNS: [3]int64{1000, 2000, 3000}},
	}}
	b, err := fresh.twinBenchFrom(rep)
	if err != nil {
		t.Fatal(err)
	}
	if b.TwinNSPerConfig != 5000 || b.Speedup != float64(b.SimNSPerConfig)/5000 {
		t.Errorf("twin %d ns, speedup %v; want 5000 ns and median/5000", b.TwinNSPerConfig, b.Speedup)
	}
	timed, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var fields []string
	for _, rec := range [][]byte{doc.Bench, timed} {
		var r twinBench
		var m map[string]any
		if err := json.Unmarshal(rec, &r); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rec, &m); err != nil {
			t.Fatal(err)
		}
		if r.SimRuns != 9 || r.SimNSMin <= 0 || r.SimNSMin > r.SimNSPerConfig || r.SimNSPerConfig > r.SimNSMax {
			t.Errorf("%s: want 9 runs and 0 < min <= median <= max", rec)
		}
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fields = append(fields, strings.Join(keys, ","))
	}
	if fields[0] != fields[1] {
		t.Errorf("record fields: BENCH_twin.json %s, fresh session %s", fields[0], fields[1])
	}
}
