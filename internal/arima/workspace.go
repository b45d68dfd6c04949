package arima

import "math"

// This file provides the per-fit scratch workspace that makes the
// Nelder-Mead objective allocation-free. The CSS / Kalman objective is
// evaluated hundreds of times per candidate and thousands of times per
// engine run; before the workspace every evaluation allocated the
// expanded lag polynomials, the differenced series, the residual vector
// and (for MLE) the full set of Kalman filter matrices. The workspace
// owns those buffers and the in-place helpers below reuse them across
// evaluations, keeping the arithmetic byte-identical to the allocating
// versions (same loops, same summation order).
//
// A Workspace is NOT safe for concurrent use: parallel fitters must use
// one workspace per goroutine (the engine draws them from a sync.Pool).

// Workspace holds reusable scratch buffers for repeated Fit calls.
// The zero value is ready to use; buffers grow on demand and are retained
// between fits so steady-state refits stop allocating. Pass it via
// FitOptions.Workspace; nil there means a private workspace per fit.
type Workspace struct {
	// β-adjusted series and differenced-series buffers. w0 persists for
	// the duration of one fit (the warm-start differenced series); weval
	// is overwritten on every objective evaluation.
	ns, w0, weval []float64

	// Objective scratch: expanded lag polynomials, their non-zero terms
	// and CSS residuals.
	arFull, maFull, resid []float64
	lags                  lagLists
	// Polynomial-multiplication scratch for expandSeasonalInto.
	polyA, polyB, polyFull []float64

	// Schur-Cohn recursion ping-pong buffers.
	scA, scB []float64

	// Kalman filter scratch (MethodMLE): state, gain, covariance matrices
	// and the applyTMT row/column buffers.
	rvec, kvec, x, xNext, col, res []float64
	pmat, qmat, tmpmat, nextmat    []float64
}

// NewWorkspace returns an empty workspace. Buffers are allocated lazily
// as the first fit sizes them.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow resizes *buf to length n, reusing its capacity when possible.
// The returned slice aliases *buf and holds arbitrary stale values —
// callers must overwrite (or zero) it before reading.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// zero clears a scratch slice.
func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// expandSeasonalInto is expandSeasonal writing into the workspace buffer
// dst (one of ws.arFull / ws.maFull). It runs the exact polynomial
// convolution of expandSeasonal — same loop order, same skip of zero
// coefficients — so results are bit-identical.
func (ws *Workspace) expandSeasonalInto(dst *[]float64, nonseasonal, seasonal []float64, s int) []float64 {
	p := len(nonseasonal)
	sp := len(seasonal)
	if sp == 0 {
		out := grow(dst, p)
		copy(out, nonseasonal)
		return out
	}
	n := p + s*sp
	a := grow(&ws.polyA, p+1)
	zero(a)
	a[0] = 1
	for i, v := range nonseasonal {
		a[i+1] = -v
	}
	b := grow(&ws.polyB, s*sp+1)
	zero(b)
	b[0] = 1
	for k, v := range seasonal {
		b[s*(k+1)] = -v
	}
	full := grow(&ws.polyFull, n+1)
	zero(full)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			full[i+j] += av * bv
		}
	}
	out := grow(dst, n)
	for j := 1; j <= n; j++ {
		out[j-1] = -full[j]
	}
	return out
}

// differenceInto applies (1−B)ᵈ(1−Bˢ)ᴰ to src, writing into the buffer
// *dst (in place, forward sweeps). It mirrors timeseries.Difference
// including the too-short → nil edge cases, with identical arithmetic.
func differenceInto(dst *[]float64, src []float64, d, D, s int) []float64 {
	out := grow(dst, len(src))
	copy(out, src)
	for i := 0; i < D; i++ {
		if len(out) <= s {
			return nil
		}
		for t := s; t < len(out); t++ {
			out[t-s] = out[t] - out[t-s]
		}
		out = out[:len(out)-s]
	}
	for i := 0; i < d; i++ {
		if len(out) <= 1 {
			return nil
		}
		for t := 1; t < len(out); t++ {
			out[t-1] = out[t] - out[t-1]
		}
		out = out[:len(out)-1]
	}
	return out
}

// Prediff returns the differenced series (1−B)ᵈ(1−Bˢ)ᴰ·y exactly as the
// fit warm start computes it, for callers that share one series across
// many candidates with the same differencing orders via
// FitOptions.PrediffedY. nil when the series is too short to difference.
func Prediff(y []float64, d, D, s int) []float64 {
	var buf []float64
	return differenceInto(&buf, y, d, D, s)
}

// conditionalSSInto is conditionalSS writing residuals into the
// workspace buffer; the returned slice aliases ws.resid. Only the AR
// warm-up prefix is cleared: the recursion overwrites every later entry
// before any row reads it.
func (ws *Workspace) conditionalSSInto(w []float64, c float64, arFull, maFull []float64) (css float64, resid []float64) {
	resid = grow(&ws.resid, len(w))
	zero(resid[:min(len(arFull), len(w))])
	css = conditionalSSIn(w, c, arFull, maFull, resid, &ws.lags)
	return css, resid
}

// schurCohnStable is the workspace-backed Schur-Cohn (reverse Levinson)
// recursion; see the package-level wrapper in poly.go for the contract.
// The recursion ping-pongs between two retained buffers instead of
// allocating a fresh coefficient slice per order step.
func (ws *Workspace) schurCohnStable(lagCoeffs []float64) (bool, float64) {
	// Convert to the a-parameter form used by the recursion:
	// y_t = Σ a_i y_{t−i} means a_i = lagCoeffs[i−1].
	n := len(lagCoeffs)
	// Trim trailing zeros.
	for n > 0 && lagCoeffs[n-1] == 0 {
		n--
	}
	if n == 0 {
		return true, 0
	}
	a := grow(&ws.scA, n)
	copy(a, lagCoeffs[:n])
	b := grow(&ws.scB, n)
	const margin = 1e-8
	violation := 0.0
	for k := n; k >= 1; k-- {
		r := a[k-1]
		if ab := math.Abs(r); ab >= 1-margin {
			violation += ab - (1 - margin)
			return false, violation + 1e-6
		}
		if k == 1 {
			break
		}
		denom := 1 - r*r
		next := b[:k-1]
		for i := 0; i < k-1; i++ {
			next[i] = (a[i] + r*a[k-2-i]) / denom
		}
		a, b = next, a
	}
	return true, 0
}
