package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n samples. The small subtraction keeps 99.9 % of 1000 at 999
// when the product comes out a hair above it.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule; sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median is the repository's own: the middle sample, or the mean of the
// middle two; 0 for none.
func median(xs []float64) float64 { return stats.Median(xs) }

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99.5, 99, 95, 90, 75}

// tail returns the highest percentile of sorted that still has at least
// ten samples beyond it, and its value. With too few samples for any
// candidate it falls back to the median.
func tail(sorted []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		if len(sorted)-rank(len(sorted), p) >= 10 {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

// sliceSpread cuts xs (in arrival order) into n slices and returns
// (max-min)/median of the slice medians: how much the median wandered
// inside one run.
func sliceSpread(xs []float64, n int) float64 {
	if len(xs) < n {
		return 0
	}
	meds := make([]float64, n)
	for i := range meds {
		meds[i] = median(xs[i*len(xs)/n : (i+1)*len(xs)/n])
	}
	sort.Float64s(meds)
	return (meds[n-1] - meds[0]) / percentile(meds, 50)
}
