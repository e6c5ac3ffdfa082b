package main

import (
	"fmt"
	"io"
)

// Verdicts of -compare.
const (
	improved    = "improved"
	regressed   = "regressed"
	withinBound = "within bound"
	unresolved  = "unresolved"
)

// verdict judges one end-to-end metric of a change against its base.
// When either set's spread (interquartile distance over median) exceeds
// the bound the sets cannot resolve a change of that size, unless every
// sample of one side reads better than every sample of the other.
func verdict(m metricSpec, base, change summary) string {
	if base.N == 0 || change.N == 0 || base.Median == 0 {
		return unresolved
	}
	if base.spread() > m.Bound || change.spread() > m.Bound {
		switch {
		case allBetter(m, change, base):
			return improved
		case allBetter(m, base, change):
			return regressed
		}
		return unresolved
	}
	worse := (change.Median - base.Median) / base.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return regressed
	case worse < -m.Bound:
		return improved
	}
	return withinBound
}

// allBetter reports whether every sample of a reads better than every
// sample of b.
func allBetter(m metricSpec, a, b summary) bool {
	for _, x := range a.Samples {
		for _, y := range b.Samples {
			if m.Better == "higher" && x <= y || m.Better != "higher" && x >= y {
				return false
			}
		}
	}
	return len(a.Samples) > 0 && len(b.Samples) > 0
}

// compareFiles prints one row per workload and end-to-end metric of two
// results.json files and exits 1 when any metric regressed.
func compareFiles(sp *spec, basePath, changePath string, stdout, stderr io.Writer) int {
	var base, change results
	if err := readJSON(basePath, &base); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := readJSON(changePath, &change); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	byName := map[string]workloadResult{}
	for _, w := range change.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(stdout, "%-15s %-12s %-32s %-32s %8s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "bound", "verdict")
	status := 0
	for _, bw := range base.Workloads {
		cw, ok := byName[bw.Name]
		for _, m := range sp.EndToEnd {
			b, c := bw.EndToEnd[m.Name], cw.EndToEnd[m.Name]
			v := unresolved
			if ok {
				v = verdict(m, b, c)
			}
			delta := 0.0
			if b.Median != 0 {
				delta = 100 * (c.Median - b.Median) / b.Median
			}
			fmt.Fprintf(stdout, "%-15s %-12s %-32s %-32s %+7.1f%% %5.0f%%  %s\n",
				bw.Name, m.Name, fmtSummary(b), fmtSummary(c), delta, 100*m.Bound, v)
			if v == regressed {
				status = 1
			}
		}
	}
	return status
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
