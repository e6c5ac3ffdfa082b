package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "mrefs_per_s", Better: "higher", Bound: 0.1}
	base := summarize([]float64{0.98, 1.0, 1.02})
	for _, tc := range []struct {
		name   string
		m      metricSpec
		change summary
		want   string
	}{
		{"same", lower, summarize([]float64{0.99, 1.01, 1.03}), withinBound},
		{"slower within bound", lower, summarize([]float64{1.04, 1.05, 1.06}), withinBound},
		{"slower past bound", lower, summarize([]float64{1.18, 1.2, 1.22}), regressed},
		{"faster past bound", lower, summarize([]float64{0.78, 0.8, 0.82}), improved},
		{"higher is better, rose", higher, summarize([]float64{1.18, 1.2, 1.22}), improved},
		{"higher is better, fell", higher, summarize([]float64{0.78, 0.8, 0.82}), regressed},
		{"wide spread", lower, summarize([]float64{0.7, 1.2, 1.5}), unresolved},
		{"wide spread, every sample slower", lower, summarize([]float64{1.05, 1.4, 1.8}), regressed},
		{"wide spread, every sample faster", lower, summarize([]float64{0.5, 0.7, 0.97}), improved},
		{"no samples", lower, summary{}, unresolved},
	} {
		if got := verdict(tc.m, base, tc.change); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
