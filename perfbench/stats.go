package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail figure is chosen from, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that still has
// at least ten of n samples beyond it, or 0 when even the median has fewer.
// A tail percentile read off fewer samples than that is one or two outliers,
// not a distribution.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// beyond is how many of n samples rank above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100))
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample: the smallest value at or above which p percent of the samples lie.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(float64(n)*p/100)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencySummary is a timing sample reduced the way results report it: the
// median, p99, the highest percentile the sample supports, and the count.
type latencySummary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	P99      float64 `json:"p99"`
	TailPct  float64 `json:"tail_pct"`
	TailVal  float64 `json:"tail_value"`
	Beyond   int     `json:"tail_samples_beyond"`
	P99Valid bool    `json:"p99_has_10_beyond"`
}

// summarize sorts xs in place and reduces it.
func summarize(xs []float64) latencySummary {
	sort.Float64s(xs)
	tp := tailPercentile(len(xs))
	return latencySummary{
		N:        len(xs),
		P50:      percentile(xs, 50),
		P99:      percentile(xs, 99),
		TailPct:  tp,
		TailVal:  percentile(xs, tp),
		Beyond:   beyond(len(xs), tp),
		P99Valid: beyond(len(xs), 99) >= 10,
	}
}
