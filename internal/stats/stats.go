// Package stats provides the small statistical toolkit the reproduction
// relies on: summary statistics with standard error of the mean (every table
// in the paper reports mean ± SEM), seeded shuffling and sampling, and a
// least-squares power-law fit used to verify that simulated boot traces are
// heavy-tailed (Figure 1).
package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Summary holds the summary statistics reported throughout the paper's
// evaluation tables.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	SEM    float64 // standard error of the mean
	Min    float64
	Max    float64
}

// Summarize computes summary statistics over xs. It returns an error for an
// empty sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errors.New("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
		s.SEM = s.StdDev / math.Sqrt(float64(len(xs)))
	}
	return s, nil
}

// String renders the summary as "mean±sem" the way the paper's tables do.
func (s Summary) String() string {
	return fmt.Sprintf("%.3f±%.3f", s.Mean, s.SEM)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 when len < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// SEM returns the standard error of the mean of xs.
func SEM(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Median returns the median of xs (0 for an empty slice). The input is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// PowerLawFit is a least-squares fit of log(count) = log(c) - alpha*log(rank)
// over a rank/count series.
type PowerLawFit struct {
	Alpha float64 // fitted exponent (positive for a decaying power law)
	LogC  float64 // fitted intercept in log space
	R2    float64 // coefficient of determination in log-log space
}

// FitPowerLaw fits a power law to counts indexed by rank (rank = index + 1).
// Zero counts are skipped (log undefined). At least two positive counts are
// required.
func FitPowerLaw(counts []float64) (PowerLawFit, error) {
	var xs, ys []float64
	for i, c := range counts {
		if c > 0 {
			xs = append(xs, math.Log(float64(i+1)))
			ys = append(ys, math.Log(c))
		}
	}
	if len(xs) < 2 {
		return PowerLawFit{}, errors.New("stats: need at least two positive counts to fit a power law")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return PowerLawFit{}, errors.New("stats: degenerate rank axis")
	}
	slope := sxy / sxx
	fit := PowerLawFit{Alpha: -slope, LogC: my - slope*mx}
	if syy > 0 {
		// R^2 = 1 - SS_res / SS_tot.
		var ssRes float64
		for i := range xs {
			pred := fit.LogC + slope*xs[i]
			d := ys[i] - pred
			ssRes += d * d
		}
		fit.R2 = 1 - ssRes/syy
	}
	return fit, nil
}

// Shuffle permutes idx in place using r (Fisher-Yates). It exists so every
// permutation in the pipeline flows from an explicit seed.
func Shuffle(r *rand.Rand, idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// SampleWithoutReplacement returns k distinct indices drawn from [0, n)
// using r. It returns an error if k > n.
func SampleWithoutReplacement(r *rand.Rand, n, k int) ([]int, error) {
	if k > n {
		return nil, fmt.Errorf("stats: cannot sample %d from %d without replacement", k, n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	Shuffle(r, idx)
	return idx[:k], nil
}
