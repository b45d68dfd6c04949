package arima

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/timeseries"
)

// Forecast holds an h-step-ahead prediction with error bars — the paper's
// "prediction z … the predicted values and associated error bars" (§3).
type Forecast struct {
	// Mean is the point forecast on the original scale.
	Mean []float64
	// Lower and Upper bound the central prediction interval at Level.
	Lower, Upper []float64
	// SE is the forecast standard error per horizon step.
	SE []float64
	// Level is the two-sided interval coverage, e.g. 0.95.
	Level float64
}

// Forecast produces an h-step-ahead prediction. futureExog must supply the
// exogenous regressor columns over the forecast horizon (same column order
// as at fit time; nil when the model has no regressors). level sets the
// prediction-interval coverage (0 < level < 1), e.g. 0.95.
func (m *Model) Forecast(h int, futureExog [][]float64, level float64) (*Forecast, error) {
	if h <= 0 {
		return nil, fmt.Errorf("arima: horizon must be positive, got %d", h)
	}
	if level <= 0 || level >= 1 {
		return nil, fmt.Errorf("arima: level must be in (0,1), got %v", level)
	}
	if len(futureExog) != len(m.Beta) {
		return nil, fmt.Errorf("arima: model has %d exogenous columns, future exog has %d", len(m.Beta), len(futureExog))
	}
	for i, col := range futureExog {
		if len(col) < h {
			return nil, fmt.Errorf("arima: future exog column %d has %d rows, need %d", i, len(col), h)
		}
	}

	spec := m.Spec
	arFull := expandSeasonal(m.AR, m.SAR, spec.S)
	maFull := expandSeasonal(m.MA, m.SMA, spec.S)

	// Forecast the differenced error series w.
	nW := len(m.w)
	ext := make([]float64, nW+h) // observed w followed by forecasts
	copy(ext, m.w)
	res := make([]float64, nW+h) // residuals; zero over the future
	copy(res, m.Residuals)
	for k := 0; k < h; k++ {
		t := nW + k
		v := m.Intercept
		for i, phi := range arFull {
			idx := t - 1 - i
			if idx < 0 {
				continue
			}
			v += phi * ext[idx]
		}
		for j, th := range maFull {
			idx := t - 1 - j
			if idx < 0 || idx >= nW {
				continue // future residuals are zero in expectation
			}
			v -= th * res[idx]
		}
		ext[t] = v
	}
	wfc := ext[nW:]

	// Integrate back to the level of the regression-error series n.
	nSeries := make([]float64, len(m.y))
	copy(nSeries, m.y)
	for j, col := range m.exog {
		b := m.Beta[j]
		for t := range nSeries {
			nSeries[t] -= b * col[t]
		}
	}
	mean := timeseries.IntegrateForecast(nSeries, wfc, spec.D, spec.SD, spec.S)

	// Add the future exogenous effect.
	for j, col := range futureExog {
		b := m.Beta[j]
		for k := 0; k < h; k++ {
			mean[k] += b * col[k]
		}
	}

	// ψ-weight forecast variance, with differencing folded into the AR side.
	arWithDiff := polyMulLag(arFull, differencingPolynomial(spec.D, spec.SD, spec.S))
	psi := psiWeights(arWithDiff, maFull, h)
	se := make([]float64, h)
	var acc float64
	for k := 0; k < h; k++ {
		acc += psi[k] * psi[k]
		se[k] = math.Sqrt(m.Sigma2 * acc)
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

// NumParams returns the number of estimated parameters (ARMA coefficients,
// intercept if present, β's and σ²).
func (m *Model) NumParams() int {
	k := m.Spec.NumARMAParams() + len(m.Beta) + 1 // σ²
	if m.Spec.D == 0 && m.Spec.SD == 0 {
		k++
	}
	return k
}
