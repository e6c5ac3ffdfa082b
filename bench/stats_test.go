package main

import (
	"math"
	"testing"
)

// TestSummarizeMatchesPythonQuantiles pins the median and quartiles to
// Python's statistics.median and statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 1, 2, 3, 5, 8, 13}, 1, 3, 8},
	} {
		s := summarize(tc.xs)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.med) || !near(s.Q3, tc.q3) || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v n %d, want %v %v %v", tc.xs, s.Q1, s.Median, s.Q3, s.N, tc.q1, tc.med, tc.q3)
		}
	}
	if s := summarize([]float64{9, 1}); s.Samples[0] != 9 {
		t.Errorf("summarize reordered its samples: %v", s.Samples)
	}
	if got := summarize([]float64{2, 3, 4}).spread(); !near(got, (4.0-2.0)/3.0) {
		t.Errorf("spread = %v", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
