package arima

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/stats"
)

// Model is a fitted SARIMA(X) model.
type Model struct {
	Spec Spec

	// AR, MA, SAR, SMA hold the estimated coefficients (φ, θ, Φ, Θ).
	AR, MA, SAR, SMA []float64
	// Intercept is the constant term of the differenced series (only
	// estimated when d + D = 0).
	Intercept float64
	// Beta holds the exogenous regression coefficients, one per regressor
	// column (the paper's equation (6) β's).
	Beta []float64

	// Sigma2 is the innovation variance estimated from the CSS.
	Sigma2 float64
	// LogLik is the Gaussian conditional log-likelihood.
	LogLik float64
	// AIC is −2·LogLik + 2·k, the Akaike information criterion.
	AIC float64
	// BIC is −2·LogLik + k·log(n).
	BIC float64

	// Residuals are the in-sample one-step innovations on the differenced
	// scale (length n − d − s·D, with the first maxARLag entries zero).
	Residuals []float64

	// y is the training series on the original scale.
	y []float64
	// exog is the training regressor matrix (may be nil).
	exog [][]float64
	// w is the differenced regression-error series the ARMA part models.
	w []float64
	// css is the conditional sum of squares over the fitted residuals,
	// kept so Advance can extend it without re-summing the whole series.
	css float64
	// optX is the optimiser-space parameter vector the fit converged to,
	// in the packing [intercept?][φ×p][θ×q][Φ×P][Θ×Q][β×r]; nil for pure
	// differencing models. It seeds warm-started refits.
	optX []float64

	// Converged reports whether the optimiser met its tolerances.
	Converged bool
}

// OptVector returns a copy of the optimiser-space parameter vector the fit
// converged to (nil for pure differencing models). Feeding it back through
// FitOptions.WarmStart seeds the next refit from this model's solution.
func (m *Model) OptVector() []float64 { return clone(m.optX) }

// FitMethod selects the estimation objective.
type FitMethod int

const (
	// MethodCSS minimises the Box-Jenkins conditional sum of squares —
	// fast and the default (the classic route the paper's §4.1 follows).
	MethodCSS FitMethod = iota
	// MethodMLE maximises the exact Gaussian likelihood via the Kalman
	// filter (what statsmodels' SARIMAX does). Slower, slightly more
	// accurate on short series; see BenchmarkAblationCSSvsMLE.
	MethodMLE
)

// FitOptions tunes estimation.
type FitOptions struct {
	// MaxIter bounds optimiser iterations; 0 means the optimiser default.
	MaxIter int
	// TolF forwards to Nelder-Mead.
	TolF float64
	// Method selects CSS (default) or exact-likelihood estimation.
	Method FitMethod
	// Ctx carries cancellation and a per-fit deadline into the optimiser:
	// the simplex search aborts cooperatively once the context is done and
	// Fit returns an error wrapping the context's cause, so callers can
	// errors.Is on context.DeadlineExceeded / context.Canceled. nil means
	// no cancellation.
	Ctx context.Context
	// Obs receives fit counters and debug logs (nil disables).
	Obs *obs.Observer
	// Workspace supplies reusable scratch buffers for the objective hot
	// path, amortising allocations across fits. A workspace must not be
	// shared between concurrent fits; nil uses a private one.
	Workspace *Workspace
	// PrediffedY optionally supplies Difference(y, spec.D, spec.SD,
	// spec.S) computed by the caller, letting an engine run share one
	// differenced series across every candidate with the same
	// differencing orders. It is only consulted when exog is empty (with
	// regressors the warm-start series is β-adjusted first) and is
	// treated as read-only.
	PrediffedY []float64
	// WarmStart optionally seeds the optimiser from a previous fit's
	// OptVector. A vector of the wrong length or with non-finite entries
	// falls back to the cold simplex (counted as refit_warm_fallbacks_total),
	// as does a warm result that scores worse than the cold start point.
	WarmStart []float64
}

// errTooShort is returned when the series cannot support the model order.
var errTooShort = errors.New("arima: series too short for model order")

// Fit estimates a SARIMA model for y with optional exogenous regressors.
// exog is a list of columns, each of length len(y) (nil for none) — the
// paper's shock pulses and Fourier terms enter here. The exogenous effect
// is modelled as regression with SARIMA errors: y = X·β + n, n ~ SARIMA.
func Fit(spec Spec, y []float64, exog [][]float64, opt FitOptions) (*Model, error) {
	o := opt.Obs
	began := time.Now()
	m, err := fit(spec, y, exog, opt)
	if err != nil {
		o.Count("arima_fit_errors_total", 1)
		o.Debug("arima fit failed", "spec", spec.String(), "err", err)
		return nil, err
	}
	o.Count("arima_fits_total", 1)
	o.Debug("arima fit", "spec", spec.String(), "exog", len(exog),
		"aic", m.AIC, "converged", m.Converged, "dur", time.Since(began))
	return m, nil
}

func fit(spec Spec, y []float64, exog [][]float64, opt FitOptions) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := len(y)
	for i, col := range exog {
		if len(col) != n {
			return nil, fmt.Errorf("arima: exog column %d has length %d, want %d", i, len(col), n)
		}
	}
	lost := spec.LostObservations()
	minN := lost + spec.MaxARLag() + spec.MaxMALag() + spec.NumARMAParams() + len(exog) + 10
	if n < minN {
		return nil, fmt.Errorf("%w: need >= %d observations for %v, have %d", errTooShort, minN, spec, n)
	}

	// Initial β by OLS of y on exog (two-step start for the joint fit).
	beta0 := make([]float64, len(exog))
	if len(exog) > 0 {
		design := stats.DesignMatrix(false, append([][]float64{stats.Ones(n)}, exog...)...)
		res, err := stats.OLS(design, y)
		if err != nil {
			return nil, fmt.Errorf("arima: exogenous regression failed: %w", err)
		}
		copy(beta0, res.Coef[1:])
	}

	ws := opt.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}

	// Differenced error series for the warm start. The β adjustment and
	// the differencing both write into workspace buffers; when every β is
	// zero (always true without regressors) the copy of y is skipped
	// entirely and the differencing reads y directly.
	makeW := func(beta []float64, dst *[]float64) []float64 {
		nSeries := y
		if !allZero(beta) {
			ns := grow(&ws.ns, n)
			copy(ns, y)
			for j, col := range exog {
				b := beta[j]
				for t := range ns {
					ns[t] -= b * col[t]
				}
			}
			nSeries = ns
		}
		return differenceInto(dst, nSeries, spec.D, spec.SD, spec.S)
	}
	var w0 []float64
	if len(exog) == 0 && opt.PrediffedY != nil {
		w0 = opt.PrediffedY
	} else {
		w0 = makeW(beta0, &ws.w0)
	}

	estimateIntercept := spec.D == 0 && spec.SD == 0

	// Hannan-Rissanen warm start for the non-seasonal φ, θ.
	phi0, theta0 := hannanRissanen(w0, spec.P, spec.Q)

	// Parameter packing:
	// [intercept?][φ×p][θ×q][Φ×P][Θ×Q][β×r]
	nParams := spec.NumARMAParams() + len(exog)
	if estimateIntercept {
		nParams++
	}
	x0 := make([]float64, 0, nParams)
	if estimateIntercept {
		x0 = append(x0, stats.Mean(w0))
	}
	x0 = append(x0, phi0...)
	x0 = append(x0, theta0...)
	for i := 0; i < spec.SP; i++ {
		x0 = append(x0, 0.1)
	}
	for i := 0; i < spec.SQ; i++ {
		x0 = append(x0, 0.1)
	}
	x0 = append(x0, beta0...)

	unpack := func(x []float64) (c float64, ar, ma, sar, sma, beta []float64) {
		i := 0
		if estimateIntercept {
			c = x[0]
			i = 1
		}
		ar = x[i : i+spec.P]
		i += spec.P
		ma = x[i : i+spec.Q]
		i += spec.Q
		sar = x[i : i+spec.SP]
		i += spec.SP
		sma = x[i : i+spec.SQ]
		i += spec.SQ
		beta = x[i:]
		return
	}

	objective := func(x []float64) float64 {
		c, ar, ma, sar, sma, beta := unpack(x)
		arFull := ws.expandSeasonalInto(&ws.arFull, ar, sar, spec.S)
		maFull := ws.expandSeasonalInto(&ws.maFull, ma, sma, spec.S)
		if ok, pen := ws.schurCohnStable(arFull); !ok {
			return 1e12 * (1 + pen)
		}
		if ok, pen := ws.schurCohnStable(maFull); !ok {
			return 1e12 * (1 + pen)
		}
		w := w0
		if len(beta) > 0 {
			w = makeW(beta, &ws.weval)
		}
		if opt.Method == MethodMLE {
			ll, _ := ws.kalmanLogLik(w, c, arFull, maFull)
			if math.IsNaN(ll) || math.IsInf(ll, 0) {
				return 1e12
			}
			return -ll
		}
		css, _ := ws.conditionalSSInto(w, c, arFull, maFull)
		if math.IsNaN(css) || math.IsInf(css, 0) {
			return 1e12
		}
		return css
	}

	if opt.Ctx != nil && opt.Ctx.Err() != nil {
		return nil, fmt.Errorf("arima: fit aborted: %w", opt.Ctx.Err())
	}
	family := "ARIMA"
	if spec.IsSeasonal() {
		family = "SARIMAX"
	}
	nmOpts := optimize.NelderMeadOptions{
		MaxIter: opt.MaxIter,
		TolF:    opt.TolF,
		Abort:   optimize.ContextAbort(opt.Ctx),
	}
	var result optimize.Result
	switch {
	case nParams == 0:
		// Pure differencing model (e.g. (0,1,0)): nothing to optimise.
		result = optimize.Result{X: nil, F: objective(nil), Converged: true, Evals: 1}
	case opt.WarmStart != nil:
		var warmOK bool
		result, warmOK = optimize.NelderMeadWarm(objective, x0, opt.WarmStart, nmOpts)
		if !warmOK {
			opt.Obs.Count("refit_warm_fallbacks_total", 1, obs.L("family", family))
		}
	default:
		result = optimize.NelderMead(objective, x0, nmOpts)
	}
	opt.Obs.Count("fit_objective_evals_total", int64(result.Evals), obs.L("family", family))
	if result.Aborted {
		return nil, fmt.Errorf("arima: fit aborted: %w", optimize.AbortCause(opt.Ctx))
	}

	// Final pass: the model owns fresh residual / coefficient slices,
	// never workspace aliases (only the lag lists are workspace scratch).
	c, ar, ma, sar, sma, beta := unpack(result.X)
	arFull := expandSeasonal(ar, sar, spec.S)
	maFull := expandSeasonal(ma, sma, spec.S)
	w := w0
	if len(beta) > 0 {
		w = makeW(beta, &ws.weval)
	}
	resid := make([]float64, len(w))
	css := conditionalSSIn(w, c, arFull, maFull, resid, &ws.lags)
	warm := spec.MaxARLag()
	neff := len(w) - warm
	if neff <= 0 {
		return nil, errTooShort
	}
	var sigma2, ll float64
	if opt.Method == MethodMLE {
		ll, sigma2 = kalmanLogLik(w, c, arFull, maFull)
		if sigma2 <= 0 || math.IsInf(ll, 0) {
			// Fall back to the CSS statistics for pathological corners.
			sigma2 = css / float64(neff)
			ll = -0.5 * float64(neff) * (math.Log(2*math.Pi*math.Max(sigma2, 1e-12)) + 1)
		}
	} else {
		sigma2 = css / float64(neff)
		if sigma2 <= 0 {
			sigma2 = 1e-12
		}
		ll = -0.5 * float64(neff) * (math.Log(2*math.Pi*sigma2) + 1)
	}
	k := float64(nParams + 1) // +1 for σ²

	m := &Model{
		Spec:      spec,
		AR:        clone(ar),
		MA:        clone(ma),
		SAR:       clone(sar),
		SMA:       clone(sma),
		Intercept: c,
		Beta:      clone(beta),
		Sigma2:    sigma2,
		LogLik:    ll,
		AIC:       -2*ll + 2*k,
		BIC:       -2*ll + k*math.Log(float64(neff)),
		Residuals: resid,
		y:         clone(y),
		w:         clone(w),
		css:       css,
		optX:      clone(result.X),
		Converged: result.Converged,
	}
	if len(exog) > 0 {
		m.exog = make([][]float64, len(exog))
		for i, col := range exog {
			m.exog[i] = clone(col)
		}
	}
	return m, nil
}

func clone(x []float64) []float64 {
	if x == nil {
		return nil
	}
	return append([]float64(nil), x...)
}

// allZero reports whether every β is zero — in that case the regression
// adjustment y − X·β is the identity and the copy of y can be skipped.
func allZero(beta []float64) bool {
	for _, b := range beta {
		if b != 0 {
			return false
		}
	}
	return true
}

// conditionalSS computes the conditional sum of squares and residuals for
// the differenced series w under the expanded lag polynomials, per
// equation (2): a_t = w_t − c − Σφᵢw_{t−i} + Σθⱼa_{t−j}. Pre-sample w's
// are unavailable, so the recursion starts at t = len(arFull); pre-sample
// residuals are zero.
func conditionalSS(w []float64, c float64, arFull, maFull []float64) (css float64, resid []float64) {
	resid = make([]float64, len(w))
	return conditionalSSIn(w, c, arFull, maFull, resid, new(lagLists)), resid
}

// conditionalSSIn is the workspace core of conditionalSS: it writes the
// innovations into resid (length len(w), zero over [0, len(arFull))) and
// returns the CSS. lags is scratch for the sparse form of the polynomials.
func conditionalSSIn(w []float64, c float64, arFull, maFull []float64, resid []float64, lags *lagLists) (css float64) {
	warm := len(arFull)
	if warm > len(w) {
		return math.Inf(1)
	}
	return innovations(w, c, lags.set(arFull, maFull), resid, warm, 0)
}

// lagTerm is one non-zero coefficient of an expanded lag polynomial.
type lagTerm struct {
	coef float64
	lag  int // 1-based: coef multiplies the value lag steps back
}

// lagLists holds the non-zero terms of an expanded AR and MA polynomial
// pair, in lag order.
type lagLists struct{ ar, ma []lagTerm }

// set fills l from the dense polynomials, reusing its storage, and
// returns l.
func (l *lagLists) set(arFull, maFull []float64) *lagLists {
	l.ar = nonZeroLags(l.ar, arFull)
	l.ma = nonZeroLags(l.ma, maFull)
	return l
}

// nonZeroLags refills dst with the non-zero entries of coeffs, allocating
// only when dst cannot hold every entry. NaN counts as non-zero, exactly
// as the `!= 0` test of a dense sweep treats it.
func nonZeroLags(dst []lagTerm, coeffs []float64) []lagTerm {
	if cap(dst) < len(coeffs) {
		dst = make([]lagTerm, 0, len(coeffs))
	}
	dst = dst[:0]
	for i, v := range coeffs {
		if v != 0 {
			dst = append(dst, lagTerm{coef: v, lag: i + 1})
		}
	}
	return dst
}

// innovations runs the recursion of equation (2) for rows [from, len(w)),
// writing a_t into resid and adding each a_t² to css, which it returns.
// resid[:from] must hold the earlier innovations (zero before the AR
// warm-up) and from must be at least the longest AR lag.
//
// Only the non-zero lags are visited, in lag order, so every row performs
// the same floating-point operations in the same order as a dense sweep
// over the expanded polynomials that skips zero coefficients: the result
// is bit-identical, at a cost set by the handful of non-zero lags rather
// than the p + s·P and q + s·Q entries of the expanded seasonal
// polynomials.
//
// Past the longest MA lag the rows run in blocks of rowBlock. A row's AR
// sum reads only w, so the block's rows subtract each AR term from
// rowBlock independent accumulators, which the CPU overlaps instead of
// waiting on one row's chain of dependent subtractions. The partial sums
// are parked in resid, and each row then adds its MA terms in order. A
// row's MA terms reach at least one row back, to residuals that are
// final by then. Each row still starts from w_t − c and applies its AR
// and MA terms in lag order, so the blocking changes no bit.
func innovations(w []float64, c float64, lags *lagLists, resid []float64, from int, css float64) float64 {
	ar, ma := lags.ar, lags.ma
	n := len(w)
	// Rows before the longest MA lag reach back past the series start for
	// some lags; those terms are pre-sample residuals and contribute zero.
	split := from
	if len(ma) > 0 && ma[len(ma)-1].lag > split {
		split = ma[len(ma)-1].lag
	}
	if split > n {
		split = n
	}
	t := from
	for ; t < split; t++ {
		v := w[t] - c
		for _, a := range ar {
			v -= a.coef * w[t-a.lag]
		}
		for _, m := range ma {
			if t-m.lag >= 0 {
				v += m.coef * resid[t-m.lag]
			}
		}
		resid[t] = v
		css += v * v
	}
	for ; t+rowBlock <= n; t += rowBlock {
		x := w[t : t+rowBlock : t+rowBlock]
		v0, v1, v2, v3 := x[0]-c, x[1]-c, x[2]-c, x[3]-c
		for _, a := range ar {
			x := w[t-a.lag : t-a.lag+rowBlock : t-a.lag+rowBlock]
			v0 -= a.coef * x[0]
			v1 -= a.coef * x[1]
			v2 -= a.coef * x[2]
			v3 -= a.coef * x[3]
		}
		r := resid[t : t+rowBlock : t+rowBlock]
		r[0], r[1], r[2], r[3] = v0, v1, v2, v3
		for j := t; j < t+rowBlock; j++ {
			v := resid[j]
			for _, m := range ma {
				v += m.coef * resid[j-m.lag]
			}
			resid[j] = v
			css += v * v
		}
	}
	for ; t < n; t++ {
		v := w[t] - c
		for _, a := range ar {
			v -= a.coef * w[t-a.lag]
		}
		for _, m := range ma {
			v += m.coef * resid[t-m.lag]
		}
		resid[t] = v
		css += v * v
	}
	return css
}

// rowBlock is the number of rows innovations computes together; its
// blocked loop is written out for this width.
const rowBlock = 4

// hannanRissanen produces initial φ, θ estimates: a long autoregression
// estimates innovations, then w is regressed on its own lags and lagged
// innovations. Failures fall back to small constants.
func hannanRissanen(w []float64, p, q int) (phi, theta []float64) {
	phi = make([]float64, p)
	theta = make([]float64, q)
	fallback := func() ([]float64, []float64) {
		for i := range phi {
			phi[i] = 0.05
		}
		for i := range theta {
			theta[i] = 0.05
		}
		return phi, theta
	}
	if p+q == 0 {
		return phi, theta
	}
	n := len(w)
	longLag := 10
	if p+q+1 > longLag {
		longLag = p + q + 1
	}
	if n < longLag*3+p+q+10 {
		return fallback()
	}
	mean := stats.Mean(w)
	wc := make([]float64, n)
	for i, v := range w {
		wc[i] = v - mean
	}
	// Step 1: long AR by OLS.
	rows := n - longLag
	design := linalg.NewMatrix(rows, longLag)
	target := make([]float64, rows)
	for t := 0; t < rows; t++ {
		target[t] = wc[t+longLag]
		for j := 0; j < longLag; j++ {
			design.Set(t, j, wc[t+longLag-1-j])
		}
	}
	coef, err := linalg.SolveLeastSquares(design, target)
	if err != nil {
		return fallback()
	}
	// Innovations.
	innov := make([]float64, n)
	for t := longLag; t < n; t++ {
		v := wc[t]
		for j := 0; j < longLag; j++ {
			v -= coef[j] * wc[t-1-j]
		}
		innov[t] = v
	}
	// Step 2: regress wc on p own-lags and q innovation lags.
	start := longLag + q
	if p > 0 && start < p {
		start = p
	}
	rows2 := n - start
	if rows2 < p+q+5 {
		return fallback()
	}
	design2 := linalg.NewMatrix(rows2, p+q)
	target2 := make([]float64, rows2)
	for t := 0; t < rows2; t++ {
		tt := t + start
		target2[t] = wc[tt]
		for i := 0; i < p; i++ {
			design2.Set(t, i, wc[tt-1-i])
		}
		for j := 0; j < q; j++ {
			design2.Set(t, p+j, innov[tt-1-j])
		}
	}
	coef2, err := linalg.SolveLeastSquares(design2, target2)
	if err != nil {
		return fallback()
	}
	copy(phi, coef2[:p])
	for j := 0; j < q; j++ {
		// Box-Jenkins sign convention: w_t = … + a_t − Σθ a_{t−j}.
		theta[j] = -coef2[p+j]
	}
	// Clamp the warm start inside the stable region.
	if ok, _ := schurCohnStable(expandSeasonal(phi, nil, 0)); !ok {
		for i := range phi {
			phi[i] *= 0.5
		}
		if ok2, _ := schurCohnStable(expandSeasonal(phi, nil, 0)); !ok2 {
			for i := range phi {
				phi[i] = 0.05
			}
		}
	}
	if ok, _ := schurCohnStable(expandSeasonal(theta, nil, 0)); !ok {
		for i := range theta {
			theta[i] *= 0.5
		}
		if ok2, _ := schurCohnStable(expandSeasonal(theta, nil, 0)); !ok2 {
			for i := range theta {
				theta[i] = 0.05
			}
		}
	}
	return phi, theta
}
