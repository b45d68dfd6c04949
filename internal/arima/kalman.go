package arima

import (
	"math"
)

// This file implements the exact Gaussian likelihood of an ARMA process
// via the Kalman filter on the Harvey state-space form — the estimator
// behind statsmodels' SARIMAX (the library the paper used). It is offered
// as FitOptions.Method = MethodMLE; the default MethodCSS is the classic
// Box-Jenkins conditional sum of squares, which is ~an order of magnitude
// faster on seasonal models and selects the same champions (see the
// BenchmarkAblationCSSFit/BenchmarkAblationMLEFit pair).
//
// State space (Harvey representation), r = max(p, q+1):
//
//	x_{t+1} = T·x_t + R·η_t      η ~ N(0, σ²)
//	y_t     = Z·x_t              Z = [1 0 … 0]
//
// with T carrying the AR coefficients in its first column and a shifted
// identity, and R = [1 θ₁ … θ_{r−1}]ᵀ.

// armaDim returns the Harvey state dimension.
func armaDim(ar, ma []float64) int {
	r := len(ar)
	if len(ma)+1 > r {
		r = len(ma) + 1
	}
	if r < 1 {
		r = 1
	}
	return r
}

// applyT computes out = T·x for the Harvey transition matrix without
// materialising T: (T·x)_i = ar_i·x_0 + x_{i+1} (x_r = 0).
func applyT(ar []float64, x, out []float64) {
	r := len(x)
	for i := 0; i < r; i++ {
		var v float64
		if i < len(ar) {
			v = ar[i] * x[0]
		}
		if i+1 < r {
			v += x[i+1]
		}
		out[i] = v
	}
}

// applyTMT computes out = T·M·Tᵀ for symmetric M (r×r, row-major) in two
// passes using applyT on rows/columns. col and res are caller-provided
// scratch vectors of length r — the per-observation Kalman recursion
// calls this in a loop and must not allocate them each time.
func applyTMT(ar []float64, m []float64, r int, tmp, out, col, res []float64) {
	// Pin the scratch lengths to r so the compiler can prove the i < r
	// loops in-bounds (the buffers arrive as grown workspace slices whose
	// length it cannot otherwise see).
	col = col[:r]
	res = res[:r]
	m = m[:r*r]
	tmp = tmp[:r*r]
	// tmp = T·M (apply T to each column of M).
	for j := 0; j < r; j++ {
		for i := 0; i < r; i++ {
			col[i] = m[i*r+j]
		}
		applyT(ar, col, res)
		for i := 0; i < r; i++ {
			tmp[i*r+j] = res[i]
		}
	}
	// out = tmp·Tᵀ (apply T to each row of tmp).
	for i := 0; i < r; i++ {
		copy(col, tmp[i*r:(i+1)*r])
		applyT(ar, col, res)
		copy(out[i*r:(i+1)*r], res)
	}
}

// stationaryCovariance solves P = T·P·Tᵀ + R·Rᵀ by fixed-point iteration
// with doubling-free geometric convergence; the AR polynomial must be
// stationary (Schur-Cohn checked by the caller). maxIter bounds work for
// near-unit-root cases.
//
// capplan:keep test fixture: the Kalman tests state expected covariances through it.
func stationaryCovariance(ar, rvec []float64, r int) []float64 {
	p := make([]float64, r*r)
	stationaryCovarianceIn(ar, rvec, r, p,
		make([]float64, r*r), make([]float64, r*r), make([]float64, r*r),
		make([]float64, r), make([]float64, r))
	return p
}

// stationaryCovarianceIn is the scratch-parameterised core of
// stationaryCovariance: it solves for P into p using the caller's q /
// tmp / next matrices and col / res vectors (all overwritten).
func stationaryCovarianceIn(ar, rvec []float64, r int, p, q, tmp, next, col, res []float64) {
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			q[i*r+j] = rvec[i] * rvec[j]
		}
	}
	copy(p, q)
	const maxIter = 500
	for iter := 0; iter < maxIter; iter++ {
		applyTMT(ar, p, r, tmp, next, col, res)
		var diff, scale float64
		for k := range next {
			next[k] += q[k]
			d := next[k] - p[k]
			if d < 0 {
				d = -d
			}
			if d > diff {
				diff = d
			}
			a := next[k]
			if a < 0 {
				a = -a
			}
			if a > scale {
				scale = a
			}
		}
		copy(p, next)
		if diff <= 1e-12*(1+scale) {
			break
		}
	}
}

// kalmanLogLik evaluates the exact Gaussian log-likelihood of the
// (mean-adjusted) series w under the expanded ARMA polynomials, with σ²
// concentrated out. It returns the log-likelihood and σ̂².
// The caller must have verified stationarity and invertibility.
func kalmanLogLik(w []float64, c float64, arFull, maFull []float64) (loglik, sigma2 float64) {
	return NewWorkspace().kalmanLogLik(w, c, arFull, maFull)
}

// kalmanLogLik is the workspace-backed filter: every state vector and
// covariance matrix lives in retained buffers, so the hundreds of
// likelihood evaluations of one MLE fit allocate nothing.
func (ws *Workspace) kalmanLogLik(w []float64, c float64, arFull, maFull []float64) (loglik, sigma2 float64) {
	n := len(w)
	r := armaDim(arFull, maFull)
	rvec := grow(&ws.rvec, r)
	zero(rvec)
	rvec[0] = 1
	for j := 0; j < len(maFull) && j+1 < r; j++ {
		// Harvey form uses the MA polynomial 1 + ψ₁B + … with our
		// Box-Jenkins sign convention θ(B) = 1 − Σθ_j: ψ_j = −θ_j.
		rvec[j+1] = -maFull[j]
	}

	x := grow(&ws.x, r) // state mean
	zero(x)
	col := grow(&ws.col, r)
	res := grow(&ws.res, r)
	p := grow(&ws.pmat, r*r)
	q := grow(&ws.qmat, r*r)
	tmp := grow(&ws.tmpmat, r*r)
	next := grow(&ws.nextmat, r*r)
	stationaryCovarianceIn(arFull, rvec, r, p, q, tmp, next, col, res)
	k := grow(&ws.kvec, r)
	xNext := grow(&ws.xNext, r)

	var sumLogF, sumV2F float64
	nEff := 0
	for t := 0; t < n; t++ {
		// Innovation: v = w_t − c − Z·x; F = P[0,0].
		v := w[t] - c - x[0]
		f := p[0]
		if f <= 1e-300 {
			return math.Inf(-1), 0
		}
		sumLogF += math.Log(f)
		sumV2F += v * v / f
		nEff++

		// Filtered update folded into the prediction step:
		// x⁺ = T·(x + P·Zᵀ·v/F) = T·x + (T·P·Zᵀ)·v/F.
		// K = T·P·Zᵀ (first column of T·P).
		for i := 0; i < r; i++ {
			var tv float64
			if i < len(arFull) {
				tv = arFull[i] * p[0]
			}
			if i+1 < r {
				tv += p[(i+1)*r]
			}
			k[i] = tv
		}
		applyT(arFull, x, xNext)
		for i := 0; i < r; i++ {
			x[i] = xNext[i] + k[i]*v/f
		}
		// P⁺ = T·P·Tᵀ − K·Kᵀ/F + R·Rᵀ.
		applyTMT(arFull, p, r, tmp, next, col, res)
		for i := 0; i < r; i++ {
			for j := 0; j < r; j++ {
				next[i*r+j] += rvec[i]*rvec[j] - k[i]*k[j]/f
			}
		}
		copy(p, next)
	}
	if nEff == 0 {
		return math.Inf(-1), 0
	}
	sigma2 = sumV2F / float64(nEff)
	if sigma2 <= 0 {
		return math.Inf(-1), 0
	}
	loglik = -0.5 * (float64(nEff)*(math.Log(2*math.Pi)+1+math.Log(sigma2)) + sumLogF)
	return loglik, sigma2
}
