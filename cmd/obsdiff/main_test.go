package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latsim/internal/obs"
	"latsim/internal/obs/diff"
)

// TestBaselinesReproduceByteForByte regenerates the baseline matrix and
// byte-compares every report with its committed file. The simulator is
// deterministic, so any difference is a behaviour change: the test then
// prints the judged diff and the first differing line. Every baseline
// must be produced by a matrix entry, and every entry must have one.
func TestBaselinesReproduceByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates 24 observed runs")
	}
	dir := filepath.Join("..", "..", baselineDir)
	reports, err := regenerate()
	if err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	for i, e := range gateMatrix() {
		path := filepath.Join(dir, e.stem+".report.json")
		produced[filepath.Base(path)] = true
		fresh, err := obs.EncodeReport(reports[i])
		if err != nil {
			t.Fatal(err)
		}
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s %s: %v (go run ./cmd/obsdiff -update-baselines writes it)", e.app, e.cfg.Label, err)
			continue
		}
		if !bytes.Equal(committed, fresh) {
			t.Errorf("%s %s: regenerated report differs from %s\n%s", e.app, e.cfg.Label, path, explain(path, committed, fresh, reports[i]))
		}
	}
	all, err := filepath.Glob(filepath.Join(dir, "*.report.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range all {
		if !produced[filepath.Base(path)] {
			t.Errorf("%s: no matrix entry produces this baseline", path)
		}
	}
}

// explain describes a mismatch with the baseline at path: the judged
// diff of the two reports, and the first line where the files differ.
func explain(path string, committed, fresh []byte, rep *obs.Report) string {
	var b strings.Builder
	if base, err := obs.DecodeReport(committed); err != nil {
		fmt.Fprintf(&b, "baseline does not decode: %v\n", err)
	} else {
		d := diff.Compare(base, rep)
		d.BaseLabel, d.NewLabel = path, "regenerated"
		d.Render(&b)
		if d.Verdict == diff.Identical {
			b.WriteString("every judged metric is identical: what moved is the shape of a per-interval series, " +
				"the waterfall's per-segment attribution or another field the judge does not read\n")
		}
	}
	cl, fl := strings.Split(string(committed), "\n"), strings.Split(string(fresh), "\n")
	for i := 0; i < len(cl) || i < len(fl); i++ {
		var c, f string
		if i < len(cl) {
			c = cl[i]
		}
		if i < len(fl) {
			f = fl[i]
		}
		if c != f {
			fmt.Fprintf(&b, "first difference at line %d:\n  baseline:    %s\n  regenerated: %s\n", i+1, c, f)
			break
		}
	}
	return b.String()
}
