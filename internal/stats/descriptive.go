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

// PopVariance returns the population variance (n denominator).
func PopVariance(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(x)
	var ss float64
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return ss / float64(n)
}

// Min returns the smallest element of x, or NaN for empty input.
func Min(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element of x, or NaN for empty input.
func Max(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

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

// Covariance returns the unbiased sample covariance of x and y.
// It panics if the lengths disagree and returns NaN for n < 2.
func Covariance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Covariance length mismatch")
	}
	n := len(x)
	if n < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var s float64
	for i := range x {
		s += (x[i] - mx) * (y[i] - my)
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation coefficient of x and y.
func Correlation(x, y []float64) float64 {
	sx, sy := StdDev(x), StdDev(y)
	if sx == 0 || sy == 0 {
		return math.NaN()
	}
	return Covariance(x, y) / (sx * sy)
}

// Summary bundles the descriptive statistics that the engine logs for a
// monitored metric window.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q25    float64
	Median float64
	Q75    float64
	Max    float64
}

// Summarize computes a Summary of x.
func Summarize(x []float64) Summary {
	return Summary{
		N:      len(x),
		Mean:   Mean(x),
		StdDev: StdDev(x),
		Min:    Min(x),
		Q25:    Quantile(x, 0.25),
		Median: Median(x),
		Q75:    Quantile(x, 0.75),
		Max:    Max(x),
	}
}
