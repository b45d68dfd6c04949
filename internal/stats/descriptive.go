// Package stats implements the statistical machinery the learning engine
// depends on: descriptive statistics, probability distributions,
// autocorrelation analysis (ACF/PACF), ordinary least squares with
// inference, and the ADF stationarity test and residual diagnostics
// (Ljung-Box) referenced in §4 of the paper.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or NaN for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance (n−1 denominator),
// or NaN when fewer than two observations are supplied.
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(x)
	var ss float64
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Quantile returns the q-th quantile of x (0 <= q <= 1) using linear
// interpolation between order statistics (type 7, the R/NumPy default).
// It returns NaN for empty input or q outside [0,1].
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := make([]float64, len(x))
	copy(s, x)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile of x.
func Median(x []float64) float64 { return Quantile(x, 0.5) }

// MAD returns the median absolute deviation of x scaled by 1.4826 so that
// it is a consistent estimator of the standard deviation under normality.
// The shock detector uses it as a robust dispersion measure.
func MAD(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	med := Median(x)
	dev := make([]float64, len(x))
	for i, v := range x {
		dev[i] = math.Abs(v - med)
	}
	return 1.4826 * Median(dev)
}
