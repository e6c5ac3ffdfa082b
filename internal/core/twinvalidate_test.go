package core

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strconv"
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

// TestTwinValidateMatchesBenchTwin pins BENCH_twin.json byte for byte:
// twin-validate -json, rendered through the shared session and followed
// by the blank line cmd/figures prints after an experiment, must equal
// the committed file. A change that moves the twin or the matrix
// regenerates it (EXPERIMENTS.md).
func TestTwinValidateMatchesBenchTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the twin's full matrix")
	}
	if runtime.GOARCH != "amd64" {
		// The file holds full-precision floats, and the Go spec lets a
		// compiler fuse x*y+z into one rounding, which arm64 builds do.
		t.Skipf("BENCH_twin.json was generated on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	want, err := os.ReadFile("../../BENCH_twin.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := session(t).RunExperiment(&got, "twin-validate", &RenderOptions{JSON: true}); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')
	matchGolden(t, "twin-validate -json", got.Bytes(), "BENCH_twin.json", want)
}

// TestFigureTwinOverlay renders Figure 3 with the twin's overlay (what
// figures -twin prints): every bar carries a twin total, and the SC bar,
// a reference configuration the twin anchors on, reads its measured
// total.
func TestFigureTwinOverlay(t *testing.T) {
	s := session(t)
	fig, err := s.Figure("fig3")
	if err != nil {
		t.Fatal(err)
	}
	labels, want := map[string]bool{}, 0
	for _, app := range fig.Apps {
		for _, bar := range fig.Bars[app] {
			labels[bar.Label] = true
			want++
		}
	}
	var out bytes.Buffer
	if err := s.RunExperiment(&out, "fig3", &RenderOptions{Twin: s.CharacterizeAll}); err != nil {
		t.Fatal(err)
	}
	bars := 0
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line) // label, total, twin, err
		if len(f) != 4 || !labels[f[0]] {
			continue
		}
		bars++
		if f[2] == "-" {
			t.Errorf("bar %q shows no twin total", line)
		} else if f[0] == "SC" {
			if e, err := strconv.ParseFloat(f[3], 64); err != nil || math.Abs(e) > 0.05 {
				t.Errorf("anchored bar %q: twin error %s, want within 0.05 points", line, f[3])
			}
		}
	}
	if bars != want {
		t.Errorf("overlay shows %d bars, want %d:\n%s", bars, want, out.String())
	}
}
