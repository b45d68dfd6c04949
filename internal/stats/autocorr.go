package stats

import "math"

// ACF returns the sample autocorrelation function of x at lags 0..maxLag.
// Lag 0 is always 1. The estimator is the standard biased one
// (denominator n), which guarantees a positive semi-definite sequence and
// matches statsmodels' default.
//
// The paper (§4.1, Figure 1a) computes the ACF over 30 lags to seed the
// candidate SARIMA orders.
func ACF(x []float64, maxLag int) []float64 {
	n := len(x)
	if maxLag < 0 {
		panic("stats: negative maxLag")
	}
	out := make([]float64, maxLag+1)
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	m := Mean(x)
	var c0 float64
	for _, v := range x {
		d := v - m
		c0 += d * d
	}
	c0 /= float64(n)
	out[0] = 1
	if c0 == 0 {
		for k := 1; k <= maxLag; k++ {
			out[k] = math.NaN()
		}
		return out
	}
	for k := 1; k <= maxLag; k++ {
		if k >= n {
			out[k] = 0
			continue
		}
		var ck float64
		for t := k; t < n; t++ {
			ck += (x[t] - m) * (x[t-k] - m)
		}
		ck /= float64(n)
		out[k] = ck / c0
	}
	return out
}

// PACF returns the sample partial autocorrelation function at lags
// 1..maxLag using the Durbin-Levinson recursion on the sample ACF.
// The returned slice has length maxLag with out[0] = PACF at lag 1.
func PACF(x []float64, maxLag int) []float64 {
	if maxLag <= 0 {
		return nil
	}
	rho := ACF(x, maxLag)
	out := make([]float64, maxLag)
	// Durbin-Levinson: phi[k][j] coefficients of the AR(k) fit.
	phiPrev := make([]float64, maxLag+1)
	phiCur := make([]float64, maxLag+1)
	v := 1.0 // innovation variance (in units of c0)
	for k := 1; k <= maxLag; k++ {
		var acc float64
		for j := 1; j < k; j++ {
			acc += phiPrev[j] * rho[k-j]
		}
		var phiKK float64
		if v != 0 {
			phiKK = (rho[k] - acc) / v
		}
		phiCur[k] = phiKK
		for j := 1; j < k; j++ {
			phiCur[j] = phiPrev[j] - phiKK*phiPrev[k-j]
		}
		v *= 1 - phiKK*phiKK
		out[k-1] = phiKK
		copy(phiPrev, phiCur[:k+1])
	}
	return out
}

// ConfidenceBand returns the ±z/√n white-noise confidence band used to
// read a correlogram: bars inside the band are statistically
// indistinguishable from zero at the given two-sided level (e.g. 0.95).
func ConfidenceBand(n int, level float64) float64 {
	if n <= 0 {
		return math.NaN()
	}
	z := NormalQuantile(0.5 + level/2)
	return z / math.Sqrt(float64(n))
}

// LjungBoxResult reports the Ljung-Box portmanteau test for residual
// autocorrelation.
type LjungBoxResult struct {
	Stat   float64 // Q statistic
	PValue float64 // under chi-square with Lags−FittedParams df
	Lags   int
}

// LjungBox tests the null hypothesis that x is white noise, examining the
// first lags autocorrelations. fittedParams reduces the degrees of freedom
// when x is a residual series from a fitted ARMA model.
func LjungBox(x []float64, lags, fittedParams int) LjungBoxResult {
	n := len(x)
	rho := ACF(x, lags)
	var q float64
	for k := 1; k <= lags; k++ {
		r := rho[k]
		if math.IsNaN(r) {
			continue
		}
		q += r * r / float64(n-k)
	}
	q *= float64(n) * float64(n+2)
	df := lags - fittedParams
	p := math.NaN()
	if df > 0 {
		p = 1 - ChiSquareCDF(q, float64(df))
	}
	return LjungBoxResult{Stat: q, PValue: p, Lags: lags}
}
