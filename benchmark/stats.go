package main

import (
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic that still has ten samples
// beyond it — the "highest percentile the sample supports" — and that
// percentile. Below 22 samples no percentile above the median qualifies, so
// the maximum is returned with percentile 100: the worst observed is then
// the only tail information there is.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 22 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// worseBy is the share of base by which cur is worse, in the metric's own
// direction; negative when cur is better.
func worseBy(base, cur float64, lowerIsBetter bool) float64 {
	d := (cur - base) / base // end-to-end metrics are positive
	if lowerIsBetter {
		return d
	}
	return -d
}

// withinBound reports whether two readings of one metric agree within the
// bound in both directions.
func withinBound(a, b, bound float64, lowerIsBetter bool) bool {
	return worseBy(a, b, lowerIsBetter) <= bound && worseBy(b, a, lowerIsBetter) <= bound
}
