// Package stats provides the numeric substrate shared by all HARMONY
// modules: descriptive statistics, empirical distributions, histograms,
// the standard normal distribution (CDF and quantile), and a small set of
// random-variate generators used by the synthetic trace generator.
//
// Everything in this package is deterministic given its inputs; functions
// that need randomness take an explicit *rand.Rand.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n), or 0 if
// xs has fewer than one element.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n)
}

// SampleVariance returns the unbiased sample variance (dividing by n-1),
// or 0 if xs has fewer than two elements.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs. It returns an error on empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns an error on empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// CoefVar returns the coefficient of variation (stddev/mean) of xs.
// It returns 0 when the mean is 0.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// SquaredCV returns the squared coefficient of variation CV² = Var/Mean²,
// the dispersion measure used in the paper's M/G/c delay formula (Eq. 1).
// It returns 0 when the mean is 0.
func SquaredCV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return Variance(xs) / (m * m)
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It returns an error on empty input
// or p outside [0,100].
func Percentile(xs []float64, p float64) (float64, error) {
	qs, err := Percentiles(xs, []float64{p})
	if err != nil {
		return 0, err
	}
	return qs[0], nil
}

// Percentiles returns the ps[i]-th percentile of xs for every i, each
// equal to Percentile(xs, ps[i]), sorting one copy of xs once. xs is not
// modified.
func Percentiles(xs []float64, ps []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	for _, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("stats: percentile out of [0,100]")
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	qs := make([]float64, len(ps))
	for i, p := range ps {
		qs[i] = sortedPercentile(sorted, p)
	}
	return qs, nil
}

// sortedPercentile is the p-th percentile of non-empty ascending data.
func sortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}
