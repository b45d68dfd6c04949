// Package naive implements the benchmark forecasters every model in the
// system must beat to be worth storing: the naive (last value), drift,
// mean, and seasonal-naive methods. They give the engine's champions an
// interpretable floor — a SARIMAX model whose
// hold-out RMSE loses to seasonal-naive has learned nothing beyond the
// seasonal pattern itself.
package naive

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Method selects the baseline.
type Method int

const (
	// Last forecasts the final observation forever (random-walk optimal).
	Last Method = iota
	// Drift extends the line from the first to the last observation.
	Drift
	// Mean forecasts the historical mean.
	Mean
	// SeasonalNaive repeats the final season.
	SeasonalNaive
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Last:
		return "naive"
	case Drift:
		return "drift"
	case Mean:
		return "mean"
	case SeasonalNaive:
		return "seasonal-naive"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Forecast holds a baseline prediction with Gaussian error bars derived
// from the in-sample one-step errors of the method itself.
type Forecast struct {
	Mean         []float64
	Lower, Upper []float64
	SE           []float64
	Level        float64
}

// Predict produces an h-step baseline forecast from y. period is only
// used by SeasonalNaive (and must be >= 1 there). level sets the
// interval coverage.
func Predict(method Method, y []float64, period, h int, level float64) (*Forecast, error) {
	n := len(y)
	if n < 3 {
		return nil, fmt.Errorf("naive: need at least 3 observations, have %d", n)
	}
	if h <= 0 {
		return nil, fmt.Errorf("naive: horizon must be positive, got %d", h)
	}
	if level <= 0 || level >= 1 {
		return nil, fmt.Errorf("naive: level must be in (0,1), got %v", level)
	}
	if method == SeasonalNaive {
		if period < 1 {
			return nil, fmt.Errorf("naive: seasonal-naive needs period >= 1, got %d", period)
		}
		if n < period+1 {
			return nil, fmt.Errorf("naive: seasonal-naive needs > one season of data")
		}
	}

	mean := make([]float64, h)
	switch method {
	case Last:
		for k := range mean {
			mean[k] = y[n-1]
		}
	case Drift:
		slope := (y[n-1] - y[0]) / float64(n-1)
		for k := range mean {
			mean[k] = y[n-1] + slope*float64(k+1)
		}
	case Mean:
		m := stats.Mean(y)
		for k := range mean {
			mean[k] = m
		}
	case SeasonalNaive:
		for k := range mean {
			mean[k] = y[n-period+((k)%period)]
		}
	default:
		return nil, fmt.Errorf("naive: unknown method %d", int(method))
	}

	// One-step in-sample residual variance of the method.
	var resid []float64
	switch method {
	case Last, Drift:
		for t := 1; t < n; t++ {
			resid = append(resid, y[t]-y[t-1])
		}
	case Mean:
		m := stats.Mean(y)
		for t := 0; t < n; t++ {
			resid = append(resid, y[t]-m)
		}
	case SeasonalNaive:
		for t := period; t < n; t++ {
			resid = append(resid, y[t]-y[t-period])
		}
	}
	sigma := stats.StdDev(resid)
	if math.IsNaN(sigma) {
		sigma = 0
	}

	se := make([]float64, h)
	lower := make([]float64, h)
	upper := make([]float64, h)
	z := stats.NormalQuantile(0.5 + level/2)
	for k := 0; k < h; k++ {
		switch method {
		case Last, Drift:
			se[k] = sigma * math.Sqrt(float64(k+1)) // random-walk widening
		case Mean:
			se[k] = sigma
		case SeasonalNaive:
			se[k] = sigma * math.Sqrt(float64(k/period+1))
		}
		lower[k] = mean[k] - z*se[k]
		upper[k] = mean[k] + z*se[k]
	}
	return &Forecast{Mean: mean, Lower: lower, Upper: upper, SE: se, Level: level}, nil
}
