// Package ets implements the exponential-smoothing family of §4.3:
// simple exponential smoothing (SES), Holt's linear trend (HLT), the
// damped-trend variant, and the Holt-Winters seasonal method — the
// paper's "HES" branch of the Figure 4 algorithm. Smoothing parameters
// are estimated by minimising the one-step-ahead sum of squared errors
// with Nelder-Mead; forecast intervals use the standard state-space
// variance expansions.
package ets

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/stats"
)

// Method selects the exponential smoothing variant.
type Method int

const (
	// Simple exponential smoothing: level only — "suitable for data with
	// no clear trend or seasonal pattern".
	Simple Method = iota
	// Holt linear trend: level + trend.
	Holt
	// DampedTrend: level + damped trend (φ < 1).
	DampedTrend
	// HoltWinters additive seasonal: level + trend + season — the paper's
	// HES model.
	HoltWinters
	// HoltWintersDamped adds trend damping to the seasonal model.
	HoltWintersDamped
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Simple:
		return "SES"
	case Holt:
		return "Holt"
	case DampedTrend:
		return "Holt-damped"
	case HoltWinters:
		return "Holt-Winters"
	case HoltWintersDamped:
		return "Holt-Winters-damped"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

func (m Method) hasTrend() bool  { return m != Simple }
func (m Method) hasSeason() bool { return m == HoltWinters || m == HoltWintersDamped }
func (m Method) damped() bool    { return m == DampedTrend || m == HoltWintersDamped }

// Model is a fitted exponential smoothing model.
type Model struct {
	Method Method
	Period int // seasonal period (0 for non-seasonal methods)

	// Alpha, Beta, Gamma are the level, trend and seasonal smoothing
	// coefficients; Phi is the trend damping factor (1 when undamped).
	Alpha, Beta, Gamma, Phi float64

	// Level, Trend are the final smoothed states; Season holds the final
	// seasonal states (length Period).
	Level, Trend float64
	Season       []float64

	// SSE is the one-step in-sample sum of squared errors; Sigma2 its
	// variance estimate; AIC the Gaussian information criterion.
	SSE, Sigma2, AIC float64

	// Fitted and Residuals are in-sample one-step predictions and errors.
	Fitted, Residuals []float64

	n int
	// optX is the optimiser-space (logit-transformed) parameter vector the
	// fit converged to; it seeds warm-started refits.
	optX []float64
}

// OptVector returns a copy of the optimiser-space parameter vector the fit
// converged to. Feeding it back through FitOptions.WarmStart seeds the next
// refit from this model's solution.
func (m *Model) OptVector() []float64 {
	if m.optX == nil {
		return nil
	}
	return append([]float64(nil), m.optX...)
}

// FitOptions tunes estimation.
type FitOptions struct {
	// Period sets the seasonal period for Holt-Winters methods (required
	// there, ignored elsewhere).
	Period int
	// MaxIter bounds optimiser iterations (0 = default).
	MaxIter int
	// Ctx carries cancellation and a per-fit deadline into the optimiser;
	// a done context aborts the fit with an error wrapping the context's
	// cause. nil means no cancellation.
	Ctx context.Context
	// Obs receives fit counters and debug logs (nil disables).
	Obs *obs.Observer
	// WarmStart optionally seeds the optimiser from a previous fit's
	// OptVector; unusable or losing warm vectors fall back to the cold
	// simplex (counted as refit_warm_fallbacks_total).
	WarmStart []float64
}

var errShort = errors.New("ets: series too short")

// Fit estimates an exponential smoothing model on y.
func Fit(method Method, y []float64, opt FitOptions) (*Model, error) {
	o := opt.Obs
	began := time.Now()
	m, err := fit(method, y, opt)
	if err != nil {
		o.Count("ets_fit_errors_total", 1)
		o.Debug("ets fit failed", "method", method.String(), "err", err)
		return nil, err
	}
	o.Count("ets_fits_total", 1)
	o.Debug("ets fit", "method", method.String(), "aic", m.AIC, "dur", time.Since(began))
	return m, nil
}

func fit(method Method, y []float64, opt FitOptions) (*Model, error) {
	n := len(y)
	period := 0
	if method.hasSeason() {
		period = opt.Period
		if period < 2 {
			return nil, fmt.Errorf("ets: %v requires a seasonal period >= 2", method)
		}
		if n < 2*period+3 {
			return nil, fmt.Errorf("%w: %v with period %d needs >= %d observations, have %d",
				errShort, method, period, 2*period+3, n)
		}
	} else if n < 5 {
		return nil, fmt.Errorf("%w: need >= 5 observations, have %d", errShort, n)
	}

	// Initial states.
	l0, b0, s0 := initialState(method, y, period)

	// Parameter packing: [alpha, beta?, gamma?, phi?] — all transformed to
	// (0,1) via the logistic to keep the optimiser unconstrained.
	nPar := 1
	if method.hasTrend() {
		nPar++
	}
	if method.hasSeason() {
		nPar++
	}
	if method.damped() {
		nPar++
	}
	unpack := func(x []float64) (alpha, beta, gamma, phi float64) {
		i := 0
		alpha = logistic(x[i])
		i++
		beta, gamma, phi = 0, 0, 1
		if method.hasTrend() {
			beta = logistic(x[i]) * alpha // ensure beta <= alpha (stability)
			i++
		}
		if method.hasSeason() {
			gamma = logistic(x[i]) * (1 - alpha)
			i++
		}
		if method.damped() {
			phi = 0.8 + 0.19*logistic(x[i]) // damping in [0.8, 0.99]
		}
		return
	}

	// One seasonal scratch buffer serves every objective evaluation; the
	// final keep=true pass below allocates fresh state for the model.
	var seasonScratch []float64
	if method.hasSeason() {
		seasonScratch = make([]float64, period)
	}
	objective := func(x []float64) float64 {
		alpha, beta, gamma, phi := unpack(x)
		sse, _, _, _, _, _ := run(method, y, period, alpha, beta, gamma, phi, l0, b0, s0, false, seasonScratch)
		if math.IsNaN(sse) || math.IsInf(sse, 0) {
			return math.Inf(1)
		}
		return sse
	}

	x0 := make([]float64, nPar)
	// Start at alpha≈0.3, beta≈0.1·alpha, gamma≈0.2(1−alpha), phi≈0.95.
	x0[0] = logit(0.3)
	i := 1
	if method.hasTrend() {
		x0[i] = logit(0.3)
		i++
	}
	if method.hasSeason() {
		x0[i] = logit(0.3)
		i++
	}
	if method.damped() {
		x0[i] = logit(0.8)
	}
	nmOpts := optimize.NelderMeadOptions{
		MaxIter: opt.MaxIter,
		Abort:   optimize.ContextAbort(opt.Ctx),
	}
	var res optimize.Result
	if opt.WarmStart != nil {
		var warmOK bool
		res, warmOK = optimize.NelderMeadWarm(objective, x0, opt.WarmStart, nmOpts)
		if !warmOK {
			opt.Obs.Count("refit_warm_fallbacks_total", 1, obs.L("family", "HES"))
		}
	} else {
		res = optimize.NelderMead(objective, x0, nmOpts)
	}
	opt.Obs.Count("fit_objective_evals_total", int64(res.Evals), obs.L("family", "HES"))
	if res.Aborted {
		return nil, fmt.Errorf("ets: fit aborted: %w", optimize.AbortCause(opt.Ctx))
	}
	alpha, beta, gamma, phi := unpack(res.X)
	sse, level, trend, season, fitted, resid := run(method, y, period, alpha, beta, gamma, phi, l0, b0, s0, true, nil)

	sigma2 := sse / float64(n)
	k := float64(nPar + 2) // + initial level, sigma2 (approximation)
	if method.hasTrend() {
		k++
	}
	if method.hasSeason() {
		k += float64(period)
	}
	ll := -0.5 * float64(n) * (math.Log(2*math.Pi*sigma2) + 1)
	m := &Model{
		Method: method, Period: period,
		Alpha: alpha, Beta: beta, Gamma: gamma, Phi: phi,
		Level: level, Trend: trend, Season: season,
		SSE: sse, Sigma2: sigma2, AIC: -2*ll + 2*k,
		Fitted: fitted, Residuals: resid, n: n,
		optX: append([]float64(nil), res.X...),
	}
	return m, nil
}

func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
func logit(p float64) float64    { return math.Log(p / (1 - p)) }

// initialState seeds level, trend and seasonal states from the first
// period(s) of data, as in Hyndman & Athanasopoulos.
func initialState(method Method, y []float64, period int) (l0, b0 float64, s0 []float64) {
	if method.hasSeason() {
		// Level: mean of the first season. Trend: average per-step change
		// between the first two seasonal blocks. Season: first-block
		// deviations from its mean.
		var m1, m2 float64
		for i := 0; i < period; i++ {
			m1 += y[i]
			m2 += y[period+i]
		}
		m1 /= float64(period)
		m2 /= float64(period)
		l0 = m1
		b0 = (m2 - m1) / float64(period)
		s0 = make([]float64, period)
		for i := 0; i < period; i++ {
			s0[i] = y[i] - m1
		}
		return
	}
	l0 = y[0]
	if method.hasTrend() {
		k := 4
		if k > len(y)-1 {
			k = len(y) - 1
		}
		b0 = (y[k] - y[0]) / float64(k)
	}
	return
}

// run executes the smoothing recursions and returns the SSE plus final
// states; when keep is true it also materialises fitted values and
// residuals. seasonScratch, when non-nil and keep is false, is reused as
// the working seasonal state so repeated objective evaluations do not
// allocate; callers that retain the returned season must pass nil.
func run(method Method, y []float64, period int,
	alpha, beta, gamma, phi, l0, b0 float64, s0 []float64,
	keep bool, seasonScratch []float64) (sse, level, trend float64, season, fitted, resid []float64) {

	level, trend = l0, b0
	if method.hasSeason() {
		if !keep && seasonScratch != nil {
			season = seasonScratch[:len(s0)]
			copy(season, s0)
		} else {
			season = append([]float64(nil), s0...)
		}
	}
	if keep {
		fitted = make([]float64, len(y))
		resid = make([]float64, len(y))
	}
	for t, obs := range y {
		var seas float64
		if method.hasSeason() {
			seas = season[t%period]
		}
		pred := level + phi*trend + seas
		err := obs - pred
		if keep {
			fitted[t] = pred
			resid[t] = err
		}
		sse += err * err
		// State updates (additive Holt-Winters with damping).
		newLevel := level + phi*trend + alpha*err
		newTrend := phi*trend + beta*err
		level, trend = newLevel, newTrend
		if method.hasSeason() {
			season[t%period] += gamma * err
		}
	}
	return
}

// Forecast produces an h-step prediction with level-coverage prediction
// intervals.
type Forecast struct {
	Mean         []float64
	Lower, Upper []float64
	SE           []float64
	Level        float64
}

// Forecast extends the fitted model h steps ahead.
func (m *Model) Forecast(h int, level float64) (*Forecast, error) {
	if h <= 0 {
		return nil, fmt.Errorf("ets: horizon must be positive, got %d", h)
	}
	if level <= 0 || level >= 1 {
		return nil, fmt.Errorf("ets: level must be in (0,1), got %v", level)
	}
	mean := make([]float64, h)
	se := make([]float64, h)
	phiSum := 0.0
	for k := 1; k <= h; k++ {
		phiSum += math.Pow(m.Phi, float64(k))
		v := m.Level + phiSum*m.Trend
		if m.Method.hasSeason() {
			v += m.Season[(m.n+k-1)%m.Period]
		}
		mean[k-1] = v
	}
	// Variance: class-2 state-space approximation
	// c_j = alpha(1 + jβ/α·…): use the standard additive formulas.
	var acc float64 = 1
	for k := 1; k <= h; k++ {
		se[k-1] = math.Sqrt(m.Sigma2 * acc)
		// c_k for step k+1.
		cj := m.Alpha
		if m.Method.hasTrend() {
			// damped trend contribution: β·(φ+…+φ^k)
			var ps float64
			for j := 1; j <= k; j++ {
				ps += math.Pow(m.Phi, float64(j))
			}
			cj += m.Beta * ps
		}
		if m.Method.hasSeason() && k%m.Period == 0 {
			cj += m.Gamma
		}
		acc += cj * cj
	}
	z := stats.NormalQuantile(0.5 + level/2)
	lower := make([]float64, h)
	upper := make([]float64, h)
	for k := 0; k < h; k++ {
		lower[k] = mean[k] - z*se[k]
		upper[k] = mean[k] + z*se[k]
	}
	return &Forecast{Mean: mean, Lower: lower, Upper: upper, SE: se, Level: level}, nil
}
