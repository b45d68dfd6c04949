// Package tbats implements the TBATS model of the paper's §4.3
// (equations 7–14): Trigonometric seasonality, Box-Cox transformation,
// ARMA errors, Trend and Seasonal components. TBATS handles the complex
// seasonal patterns — multiple seasonal periods, non-integer seasonality —
// that plain Holt-Winters cannot, and selects its final configuration by
// AIC over the alternatives the paper lists (with/without Box-Cox, trend,
// damping, ARMA errors, and varying harmonic counts).
package tbats

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Config selects one TBATS candidate structure.
type Config struct {
	// Periods holds the seasonal period lengths m_i (e.g. 24, 168).
	Periods []int
	// Harmonics holds k_i, the number of trigonometric harmonics per
	// period. Must parallel Periods.
	Harmonics []int
	// UseBoxCox applies the Box-Cox transform with an estimated λ.
	UseBoxCox bool
	// UseTrend includes the (possibly damped) trend state b_t.
	UseTrend bool
	// UseDamping dampens the trend (requires UseTrend).
	UseDamping bool
	// ARMAP, ARMAQ are the orders of the ARMA(p,q) residual process d_t.
	ARMAP, ARMAQ int
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if len(c.Periods) != len(c.Harmonics) {
		return fmt.Errorf("tbats: %d periods but %d harmonic counts", len(c.Periods), len(c.Harmonics))
	}
	for i, p := range c.Periods {
		if p < 2 {
			return fmt.Errorf("tbats: period %d must be >= 2", p)
		}
		k := c.Harmonics[i]
		if k < 1 || 2*k > p {
			return fmt.Errorf("tbats: harmonics %d invalid for period %d", k, p)
		}
	}
	if c.UseDamping && !c.UseTrend {
		return errors.New("tbats: damping requires trend")
	}
	if c.ARMAP < 0 || c.ARMAQ < 0 || c.ARMAP > 2 || c.ARMAQ > 2 {
		return errors.New("tbats: ARMA orders must be in 0..2")
	}
	return nil
}

// String renders the configuration in the conventional TBATS notation.
func (c Config) String() string {
	s := "TBATS("
	if c.UseBoxCox {
		s += "λ̂"
	} else {
		s += "1"
	}
	s += ", {"
	for i, p := range c.Periods {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d:%d", p, c.Harmonics[i])
	}
	s += "}"
	if c.UseTrend {
		if c.UseDamping {
			s += ", damped trend"
		} else {
			s += ", trend"
		}
	}
	s += fmt.Sprintf(", ARMA(%d,%d))", c.ARMAP, c.ARMAQ)
	return s
}

// Model is a fitted TBATS model.
type Model struct {
	Config Config

	// Lambda is the Box-Cox parameter (1 when UseBoxCox is false).
	Lambda float64
	// Shift is the data shift applied before Box-Cox for non-positive
	// series.
	Shift float64

	// Alpha, Beta are the level/trend smoothing coefficients; Phi the
	// damping (1 when undamped). Gamma1, Gamma2 are the per-period
	// seasonal smoothing pairs. ARPhi, MATheta the ARMA coefficients.
	Alpha, Beta, Phi float64
	Gamma1, Gamma2   []float64
	ARPhi, MATheta   []float64

	// Final states.
	level float64
	trend float64
	seas  [][]float64 // per period: s_1..s_k
	seasS [][]float64 // per period: s*_1..s*_k
	dHist []float64   // last p values of the d process
	eHist []float64   // last q innovations

	// Sigma2 is the innovation variance on the transformed scale; AIC the
	// information criterion used for model selection.
	Sigma2 float64
	AIC    float64
	SSE    float64

	// Fitted holds in-sample one-step predictions on the original scale.
	Fitted    []float64
	Residuals []float64

	n int
	// optX is the optimiser-space parameter vector the fit converged to;
	// it seeds warm-started refits.
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
	// MaxIter bounds optimiser iterations (0 = default heuristic).
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

// state bundles the recursion state so fitting and forecasting share code.
type state struct {
	level, trend float64
	seas, seasS  [][]float64
	d, e         []float64 // ring buffers, newest first
}

func (m *Model) newState() *state {
	st := &state{level: m.level, trend: m.trend}
	st.seas = deepClone(m.seas)
	st.seasS = deepClone(m.seasS)
	st.d = append([]float64(nil), m.dHist...)
	st.e = append([]float64(nil), m.eHist...)
	return st
}

func deepClone(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, r := range x {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// Fit estimates a TBATS model with the given configuration.
func Fit(cfg Config, y []float64, opt FitOptions) (*Model, error) {
	o := opt.Obs
	began := time.Now()
	m, err := fit(cfg, y, opt)
	if err != nil {
		o.Count("tbats_fit_errors_total", 1)
		o.Debug("tbats fit failed", "config", cfg.String(), "err", err)
		return nil, err
	}
	o.Count("tbats_fits_total", 1)
	o.Debug("tbats fit", "config", cfg.String(), "aic", m.AIC, "dur", time.Since(began))
	return m, nil
}

func fit(cfg Config, y []float64, opt FitOptions) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(y)
	maxPeriod := 0
	for _, p := range cfg.Periods {
		if p > maxPeriod {
			maxPeriod = p
		}
	}
	minN := 2*maxPeriod + 10
	if minN < 20 {
		minN = 20
	}
	if n < minN {
		return nil, fmt.Errorf("tbats: need >= %d observations, have %d", minN, n)
	}

	// Box-Cox transform.
	lambda := 1.0
	shift := 0.0
	work := append([]float64(nil), y...)
	if cfg.UseBoxCox {
		shift = timeseries.BoxCoxShift(y)
		shifted := make([]float64, n)
		for i, v := range y {
			shifted[i] = v + shift
		}
		period := 2
		if len(cfg.Periods) > 0 {
			period = cfg.Periods[0]
		}
		lambda = timeseries.GuerreroLambda(shifted, period)
		tf, err := timeseries.BoxCox(shifted, lambda)
		if err != nil {
			return nil, fmt.Errorf("tbats: Box-Cox failed: %w", err)
		}
		work = tf
	}

	// Initial states from a coarse decomposition of the transformed data.
	l0, b0 := initLevelTrend(work, cfg)

	// Parameter vector:
	// [alphaRaw, betaRaw?, phiRaw?, (g1,g2)×periods, ar×p, ma×q]
	nSeas := len(cfg.Periods)
	nPar := 1
	if cfg.UseTrend {
		nPar++
	}
	if cfg.UseDamping {
		nPar++
	}
	nPar += 2*nSeas + cfg.ARMAP + cfg.ARMAQ

	// unpack decodes into buffers allocated once per fit — the optimiser
	// calls it for every objective evaluation. The final unpack's slices
	// are retained by the returned Model, which is safe because the
	// closure dies with the fit.
	g1Buf := make([]float64, nSeas)
	g2Buf := make([]float64, nSeas)
	arBuf := make([]float64, cfg.ARMAP)
	maBuf := make([]float64, cfg.ARMAQ)
	unpack := func(x []float64) (alpha, beta, phi float64, g1, g2, ar, ma []float64) {
		i := 0
		alpha = logistic(x[i])
		i++
		beta, phi = 0, 1
		if cfg.UseTrend {
			beta = logistic(x[i]) * alpha
			i++
		}
		if cfg.UseDamping {
			phi = 0.8 + 0.19*logistic(x[i])
			i++
		}
		g1, g2 = g1Buf, g2Buf
		for s := 0; s < nSeas; s++ {
			g1[s] = 0.2 * math.Tanh(x[i])
			g2[s] = 0.2 * math.Tanh(x[i+1])
			i += 2
		}
		ar, ma = arBuf, maBuf
		for j := range ar {
			ar[j] = 0.99 * math.Tanh(x[i])
			i++
		}
		for j := range ma {
			ma[j] = 0.99 * math.Tanh(x[i])
			i++
		}
		return
	}

	warm := maxPeriod
	if warm < 10 {
		warm = 10
	}
	// One recursion state serves every objective evaluation.
	evalState := newZeroState(cfg, l0, b0)
	objective := func(x []float64) float64 {
		alpha, beta, phi, g1, g2, ar, ma := unpack(x)
		sse := runSSE(cfg, work, alpha, beta, phi, g1, g2, ar, ma, l0, b0, warm, evalState)
		if math.IsNaN(sse) || math.IsInf(sse, 0) {
			return math.Inf(1)
		}
		return sse
	}

	x0 := make([]float64, nPar)
	x0[0] = logit(0.1)
	i := 1
	if cfg.UseTrend {
		x0[i] = logit(0.05)
		i++
	}
	if cfg.UseDamping {
		x0[i] = logit(0.9)
		i++
	}
	for s := 0; s < nSeas; s++ {
		x0[i] = 0.05
		x0[i+1] = 0.05
		i += 2
	}
	// ARMA params start at 0 (tanh(0)=0).

	maxIter := opt.MaxIter
	if maxIter == 0 {
		maxIter = 150 * nPar
	}
	nmOpts := optimize.NelderMeadOptions{
		MaxIter: maxIter,
		Abort:   optimize.ContextAbort(opt.Ctx),
	}
	var res optimize.Result
	if opt.WarmStart != nil {
		var warmOK bool
		res, warmOK = optimize.NelderMeadWarm(objective, x0, opt.WarmStart, nmOpts)
		if !warmOK {
			opt.Obs.Count("refit_warm_fallbacks_total", 1, obs.L("family", "TBATS"))
		}
	} else {
		res = optimize.NelderMead(objective, x0, nmOpts)
	}
	opt.Obs.Count("fit_objective_evals_total", int64(res.Evals), obs.L("family", "TBATS"))
	if res.Aborted {
		return nil, fmt.Errorf("tbats: fit aborted: %w", optimize.AbortCause(opt.Ctx))
	}
	alpha, beta, phi, g1, g2, ar, ma := unpack(res.X)

	m := &Model{
		Config: cfg, Lambda: lambda, Shift: shift,
		Alpha: alpha, Beta: beta, Phi: phi,
		Gamma1: g1, Gamma2: g2, ARPhi: ar, MATheta: ma,
		n: n, optX: append([]float64(nil), res.X...),
	}
	// Final pass: record states, fitted values and residuals.
	m.finalPass(work, y, l0, b0, warm)
	return m, nil
}

func logistic(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
func logit(p float64) float64    { return math.Log(p / (1 - p)) }

func initLevelTrend(work []float64, cfg Config) (l0, b0 float64) {
	m := 1
	if len(cfg.Periods) > 0 {
		m = cfg.Periods[0]
	}
	if m > len(work)/2 {
		m = len(work) / 2
	}
	if m < 1 {
		m = 1
	}
	var m1 float64
	for i := 0; i < m; i++ {
		m1 += work[i]
	}
	l0 = m1 / float64(m)
	if cfg.UseTrend && len(work) >= 2*m {
		var m2 float64
		for i := m; i < 2*m; i++ {
			m2 += work[i]
		}
		m2 /= float64(m)
		b0 = (m2 - l0) / float64(m)
	}
	return
}

// step advances the recursion one observation: given the transformed
// observation (or NaN to forecast), it returns the one-step prediction on
// the transformed scale and updates the state.
func step(cfg Config, st *state, alpha, beta, phi float64, g1, g2, ar, ma []float64, obs float64) (pred float64, e float64) {
	// Seasonal contribution.
	var seasSum float64
	for s := range st.seas {
		for j := range st.seas[s] {
			seasSum += st.seas[s][j]
		}
	}
	// ARMA prediction of the d process.
	var dHat float64
	for j, p := range ar {
		if j < len(st.d) {
			dHat += p * st.d[j]
		}
	}
	for j, t := range ma {
		if j < len(st.e) {
			dHat += t * st.e[j]
		}
	}
	pred = st.level + phi*st.trend + seasSum + dHat

	var d float64
	if math.IsNaN(obs) {
		// Forecast step: expected innovation zero, d = dHat.
		e = 0
		d = dHat
	} else {
		e = obs - pred
		d = dHat + e
	}

	// State updates (paper equations 8, 9, 12, 13), driven by d_t.
	newLevel := st.level + phi*st.trend + alpha*d
	newTrend := phi*st.trend + beta*d
	st.level, st.trend = newLevel, newTrend
	for s := range st.seas {
		m := float64(cfg.Periods[s])
		for j := range st.seas[s] {
			lam := 2 * math.Pi * float64(j+1) / m
			sj := st.seas[s][j]
			sjS := st.seasS[s][j]
			st.seas[s][j] = sj*math.Cos(lam) + sjS*math.Sin(lam) + g1[s]*d
			st.seasS[s][j] = -sj*math.Sin(lam) + sjS*math.Cos(lam) + g2[s]*d
		}
	}
	// Shift ring buffers (newest first).
	if len(ar) > 0 {
		st.d = prepend(st.d, d, len(ar))
	}
	if len(ma) > 0 {
		st.e = prepend(st.e, e, len(ma))
	}
	return pred, e
}

// prepend inserts v at the front of the newest-first ring buffer,
// shifting in place (the buffer grows until it holds max values, then the
// oldest entry falls off). With capacity pre-sized to max this never
// allocates — it runs once per observation per objective evaluation.
func prepend(buf []float64, v float64, max int) []float64 {
	if len(buf) < max {
		buf = append(buf, 0)
	}
	copy(buf[1:], buf)
	buf[0] = v
	return buf
}

func newZeroState(cfg Config, l0, b0 float64) *state {
	st := &state{level: l0, trend: b0}
	st.seas = make([][]float64, len(cfg.Periods))
	st.seasS = make([][]float64, len(cfg.Periods))
	for i := range cfg.Periods {
		st.seas[i] = make([]float64, cfg.Harmonics[i])
		st.seasS[i] = make([]float64, cfg.Harmonics[i])
	}
	st.d = make([]float64, 0, cfg.ARMAP)
	st.e = make([]float64, 0, cfg.ARMAQ)
	return st
}

// reset returns a state built by newZeroState to its initial condition so
// one allocation serves every objective evaluation of a fit.
func (st *state) reset(l0, b0 float64) {
	st.level, st.trend = l0, b0
	for i := range st.seas {
		for j := range st.seas[i] {
			st.seas[i][j] = 0
			st.seasS[i][j] = 0
		}
	}
	st.d = st.d[:0]
	st.e = st.e[:0]
}

func runSSE(cfg Config, work []float64, alpha, beta, phi float64, g1, g2, ar, ma []float64, l0, b0 float64, warm int, st *state) float64 {
	st.reset(l0, b0)
	var sse float64
	for t, obs := range work {
		_, e := step(cfg, st, alpha, beta, phi, g1, g2, ar, ma, obs)
		if t >= warm {
			sse += e * e
		}
		if math.Abs(st.level) > 1e12 {
			return math.Inf(1)
		}
	}
	return sse
}

// finalPass re-runs the recursion with the fitted parameters, storing
// states, fitted values (back on the original scale) and the selection
// statistics.
func (m *Model) finalPass(work, y []float64, l0, b0 float64, warm int) {
	cfg := m.Config
	st := newZeroState(cfg, l0, b0)
	n := len(work)
	m.Fitted = make([]float64, n)
	m.Residuals = make([]float64, n)
	var sse float64
	neff := 0
	for t, obs := range work {
		pred, e := step(cfg, st, m.Alpha, m.Beta, m.Phi, m.Gamma1, m.Gamma2, m.ARPhi, m.MATheta, obs)
		if t >= warm {
			sse += e * e
			neff++
		}
		m.Fitted[t] = m.invTransform(pred)
		m.Residuals[t] = y[t] - m.Fitted[t]
	}
	m.level, m.trend = st.level, st.trend
	m.seas, m.seasS = st.seas, st.seasS
	m.dHist, m.eHist = st.d, st.e
	m.SSE = sse
	if neff < 1 {
		neff = 1
	}
	m.Sigma2 = sse / float64(neff)
	if m.Sigma2 <= 0 {
		m.Sigma2 = 1e-12
	}
	k := m.numParams()
	ll := -0.5 * float64(neff) * (math.Log(2*math.Pi*m.Sigma2) + 1)
	m.AIC = -2*ll + 2*float64(k)
}

func (m *Model) numParams() int {
	cfg := m.Config
	k := 2 // alpha + sigma2
	if cfg.UseTrend {
		k++
	}
	if cfg.UseDamping {
		k++
	}
	k += 2 * len(cfg.Periods)
	k += cfg.ARMAP + cfg.ARMAQ
	if cfg.UseBoxCox {
		k++
	}
	// Initial seasonal states count toward complexity as in the original
	// paper's AIC.
	for i := range cfg.Periods {
		k += 2 * cfg.Harmonics[i]
	}
	return k
}

func (m *Model) invTransform(v float64) float64 {
	if !m.Config.UseBoxCox {
		return v
	}
	out := timeseries.InverseBoxCox([]float64{v}, m.Lambda)
	return out[0] - m.Shift
}

// Forecast holds a TBATS prediction with error bars on the original scale.
type Forecast struct {
	Mean         []float64
	Lower, Upper []float64
	SE           []float64 // on the transformed scale
	Level        float64
}

// Forecast extends the model h steps ahead. Prediction intervals are
// computed on the transformed scale from the innovation impulse response
// and mapped back through the inverse Box-Cox transform.
func (m *Model) Forecast(h int, level float64) (*Forecast, error) {
	if h <= 0 {
		return nil, fmt.Errorf("tbats: horizon must be positive, got %d", h)
	}
	if level <= 0 || level >= 1 {
		return nil, fmt.Errorf("tbats: level must be in (0,1), got %v", level)
	}
	cfg := m.Config
	nan := math.NaN()

	// Mean path: innovations zero.
	st := m.newState()
	meanT := make([]float64, h)
	for k := 0; k < h; k++ {
		pred, _ := step(cfg, st, m.Alpha, m.Beta, m.Phi, m.Gamma1, m.Gamma2, m.ARPhi, m.MATheta, nan)
		meanT[k] = pred
	}

	// Impulse response: inject a unit innovation at the first future step
	// by replaying with obs = pred+1 at k=0; difference of paths gives the
	// linear impulse coefficients c_j (c_0 = 1).
	st2 := m.newState()
	impulse := make([]float64, h)
	for k := 0; k < h; k++ {
		pred, _ := stepImpulse(cfg, st2, m, k == 0)
		impulse[k] = pred - meanT[k]
	}
	impulse[0] = 1 // the contemporaneous effect on y is the innovation itself

	se := make([]float64, h)
	var acc float64
	for k := 0; k < h; k++ {
		acc += impulse[k] * impulse[k]
		se[k] = math.Sqrt(m.Sigma2 * acc)
	}

	z := stats.NormalQuantile(0.5 + level/2)
	mean := make([]float64, h)
	lower := make([]float64, h)
	upper := make([]float64, h)
	for k := 0; k < h; k++ {
		mean[k] = m.invTransform(meanT[k])
		lower[k] = m.invTransform(meanT[k] - z*se[k])
		upper[k] = m.invTransform(meanT[k] + z*se[k])
	}
	return &Forecast{Mean: mean, Lower: lower, Upper: upper, SE: se, Level: level}, nil
}

// stepImpulse advances the forecast recursion; when inject is true the
// innovation e=1 is forced (used to measure the impulse response).
func stepImpulse(cfg Config, st *state, m *Model, inject bool) (pred float64, e float64) {
	var seasSum float64
	for s := range st.seas {
		for j := range st.seas[s] {
			seasSum += st.seas[s][j]
		}
	}
	var dHat float64
	for j, p := range m.ARPhi {
		if j < len(st.d) {
			dHat += p * st.d[j]
		}
	}
	for j, t := range m.MATheta {
		if j < len(st.e) {
			dHat += t * st.e[j]
		}
	}
	pred = st.level + m.Phi*st.trend + seasSum + dHat
	e = 0
	if inject {
		e = 1
	}
	d := dHat + e
	newLevel := st.level + m.Phi*st.trend + m.Alpha*d
	newTrend := m.Phi*st.trend + m.Beta*d
	st.level, st.trend = newLevel, newTrend
	for s := range st.seas {
		mm := float64(cfg.Periods[s])
		for j := range st.seas[s] {
			lam := 2 * math.Pi * float64(j+1) / mm
			sj := st.seas[s][j]
			sjS := st.seasS[s][j]
			st.seas[s][j] = sj*math.Cos(lam) + sjS*math.Sin(lam) + m.Gamma1[s]*d
			st.seasS[s][j] = -sj*math.Sin(lam) + sjS*math.Cos(lam) + m.Gamma2[s]*d
		}
	}
	if len(m.ARPhi) > 0 {
		st.d = prepend(st.d, d, len(m.ARPhi))
	}
	if len(m.MATheta) > 0 {
		st.e = prepend(st.e, e, len(m.MATheta))
	}
	return pred, e
}
