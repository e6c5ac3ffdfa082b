package main

import (
	"sort"
	"syscall"
	"time"
)

// summary is a sample set reduced to its median and quartiles.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize computes the median and the quartiles of xs. The quartiles
// follow Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here and by a Python reader agree.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Samples: append([]float64(nil), xs...)}
	switch len(s) {
	case 0:
		return out
	case 1:
		out.Median, out.Q1, out.Q3 = s[0], s[0], s[0]
		return out
	}
	if n := len(s); n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	out.Q1, out.Q3 = quantile4(s, 1), quantile4(s, 3)
	return out
}

// quantile4 is cut point i (1..3) of the exclusive quartile method over
// sorted data of at least two values.
func quantile4(s []float64, i int) float64 {
	n, m := len(s), len(s)+1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// median of xs (0 for none).
func median(xs []float64) float64 { return summarize(xs).Median }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
