package arima

import (
	"fmt"
	"math"

	"repro/internal/timeseries"
)

// Advance folds newly observed points into the fitted model's state in
// place without re-estimating any parameter: the differenced series, the
// innovation recursion and the conditional sum of squares are all extended
// incrementally, so the cost is O(k·(p+q)) for k new points regardless of
// the training length. newExog must carry the same columns as at fit time,
// each with len(points) future rows (nil when the model has no regressors).
//
// The extension reproduces, operation for operation, what a fresh fixed-
// parameter pass over the concatenated series computes (see Rebase), so
// Forecast after Advance behaves exactly as if the model had been refitted
// with frozen coefficients. Fit statistics (Sigma2, LogLik, AIC, BIC) are
// refreshed on the CSS basis; for MethodMLE fits this swaps the Kalman σ²
// estimate for the conditional one.
func (m *Model) Advance(points []float64, newExog [][]float64) error {
	k := len(points)
	if k == 0 {
		return fmt.Errorf("arima: Advance needs at least one point")
	}
	for i, v := range points {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("arima: Advance point %d is not finite", i)
		}
	}
	if len(newExog) != len(m.Beta) {
		return fmt.Errorf("arima: model has %d exogenous columns, new exog has %d", len(m.Beta), len(newExog))
	}
	for i, col := range newExog {
		if len(col) != k {
			return fmt.Errorf("arima: new exog column %d has %d rows, want %d", i, len(col), k)
		}
	}
	spec := m.Spec
	lost := spec.LostObservations()
	oldN := len(m.y)
	if oldN < lost {
		return fmt.Errorf("arima: model state shorter than differencing window")
	}

	m.y = append(m.y, points...)
	for j := range m.exog {
		m.exog[j] = append(m.exog[j], newExog[j]...)
	}

	// Differencing only looks back lost = d + s·D steps, so the β-adjusted
	// tail window [oldN−lost, oldN+k) is enough to produce the k new values
	// of w — and yields bit-identical results to differencing the full
	// adjusted series, because each output is the same chain of
	// subtractions over the same inputs.
	buf := make([]float64, lost+k)
	for t := range buf {
		idx := oldN - lost + t
		v := m.y[idx]
		for j, col := range m.exog {
			v -= m.Beta[j] * col[idx]
		}
		buf[t] = v
	}
	wTail := timeseries.Difference(buf, spec.D, spec.SD, spec.S)
	if len(wTail) != k {
		return fmt.Errorf("arima: differenced tail has %d values, want %d", len(wTail), k)
	}

	// Continue the innovation recursion of conditionalSS over the new w's.
	arFull := expandSeasonal(m.AR, m.SAR, spec.S)
	maFull := expandSeasonal(m.MA, m.SMA, spec.S)
	warm := spec.MaxARLag()
	from := len(m.w)
	m.w = append(m.w, wTail...)
	m.Residuals = append(m.Residuals, make([]float64, k)...)
	css := innovations(m.w, m.Intercept, new(lagLists).set(arFull, maFull), m.Residuals, from, m.css)
	m.css = css

	neff := len(m.w) - warm
	if neff <= 0 {
		return errTooShort
	}
	sigma2 := css / float64(neff)
	if sigma2 <= 0 {
		sigma2 = 1e-12
	}
	m.Sigma2 = sigma2
	m.LogLik = -0.5 * float64(neff) * (math.Log(2*math.Pi*sigma2) + 1)
	kk := float64(m.NumParams())
	m.AIC = -2*m.LogLik + 2*kk
	m.BIC = -2*m.LogLik + kk*math.Log(float64(neff))
	return nil
}

// Rebase applies the model's frozen parameters to a full replacement series
// (typically the training series plus newly observed points) and returns a
// new model with freshly computed state. It is the from-scratch reference
// implementation Advance is checked against: no parameter is re-estimated,
// only the differencing, innovation recursion and fit statistics run again
// over the full series. Statistics are computed on the CSS basis.
func (m *Model) Rebase(y []float64, exog [][]float64) (*Model, error) {
	spec := m.Spec
	if len(exog) != len(m.Beta) {
		return nil, fmt.Errorf("arima: model has %d exogenous columns, got %d", len(m.Beta), len(exog))
	}
	for i, col := range exog {
		if len(col) != len(y) {
			return nil, fmt.Errorf("arima: exog column %d has length %d, want %d", i, len(col), len(y))
		}
	}
	ns := clone(y)
	for j, col := range exog {
		b := m.Beta[j]
		for t := range ns {
			ns[t] -= b * col[t]
		}
	}
	w := timeseries.Difference(ns, spec.D, spec.SD, spec.S)
	arFull := expandSeasonal(m.AR, m.SAR, spec.S)
	maFull := expandSeasonal(m.MA, m.SMA, spec.S)
	warm := spec.MaxARLag()
	neff := len(w) - warm
	if neff <= 0 {
		return nil, errTooShort
	}
	css, resid := conditionalSS(w, m.Intercept, arFull, maFull)
	sigma2 := css / float64(neff)
	if sigma2 <= 0 {
		sigma2 = 1e-12
	}
	ll := -0.5 * float64(neff) * (math.Log(2*math.Pi*sigma2) + 1)
	out := &Model{
		Spec:      spec,
		AR:        clone(m.AR),
		MA:        clone(m.MA),
		SAR:       clone(m.SAR),
		SMA:       clone(m.SMA),
		Intercept: m.Intercept,
		Beta:      clone(m.Beta),
		Sigma2:    sigma2,
		LogLik:    ll,
		Residuals: resid,
		y:         clone(y),
		w:         w,
		css:       css,
		optX:      clone(m.optX),
		Converged: m.Converged,
	}
	kk := float64(out.NumParams())
	out.AIC = -2*ll + 2*kk
	out.BIC = -2*ll + kk*math.Log(float64(neff))
	if len(exog) > 0 {
		out.exog = make([][]float64, len(exog))
		for i, col := range exog {
			out.exog[i] = clone(col)
		}
	}
	return out, nil
}
