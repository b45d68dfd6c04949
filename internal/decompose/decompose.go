// Package decompose implements classical seasonal decomposition — the
// paper's §4.1: "We discover the seasonality of the data by decomposing it
// using library functions (in particular statsmodels.tsa.seasonal in
// python)". This is the same algorithm: trend by centred moving average,
// seasonal component by per-phase means of the detrended series, residual
// as the remainder.
package decompose

import (
	"fmt"
	"math"
)

// Model selects additive or multiplicative decomposition.
type Model int

const (
	// Additive decomposes y = trend + seasonal + residual.
	Additive Model = iota
	// Multiplicative decomposes y = trend × seasonal × residual and
	// requires strictly positive data.
	Multiplicative
)

// Result holds the decomposition components, all aligned with the input
// series. Trend (and hence Residual) is NaN inside the half-window margins
// at both ends, as in statsmodels.
type Result struct {
	Trend    []float64
	Seasonal []float64
	Residual []float64
	// SeasonalIndices holds the one-period seasonal pattern
	// (length = period).
	SeasonalIndices []float64
	Period          int
	Model           Model
}

// Classical performs classical seasonal decomposition of x with the given
// period. It requires at least two full periods of data.
func Classical(x []float64, period int, model Model) (*Result, error) {
	n := len(x)
	if period < 2 {
		return nil, fmt.Errorf("decompose: period must be >= 2, got %d", period)
	}
	if n < 2*period {
		return nil, fmt.Errorf("decompose: need at least 2 periods (%d observations), got %d", 2*period, n)
	}
	if model == Multiplicative {
		for i, v := range x {
			if v <= 0 {
				return nil, fmt.Errorf("decompose: multiplicative model requires positive data (x[%d]=%v)", i, v)
			}
		}
	}

	trend := centredMA(x, period)

	// Detrend.
	detr := make([]float64, n)
	for i := range x {
		if math.IsNaN(trend[i]) {
			detr[i] = math.NaN()
			continue
		}
		if model == Additive {
			detr[i] = x[i] - trend[i]
		} else {
			detr[i] = x[i] / trend[i]
		}
	}

	// Seasonal indices: mean of detrended values per phase.
	idx := make([]float64, period)
	counts := make([]int, period)
	for i, v := range detr {
		if math.IsNaN(v) {
			continue
		}
		p := i % period
		idx[p] += v
		counts[p]++
	}
	for p := range idx {
		if counts[p] > 0 {
			idx[p] /= float64(counts[p])
		}
	}
	// Normalise: additive indices sum to zero; multiplicative average to 1.
	var mean float64
	for _, v := range idx {
		mean += v
	}
	mean /= float64(period)
	for p := range idx {
		if model == Additive {
			idx[p] -= mean
		} else if mean != 0 {
			idx[p] /= mean
		}
	}

	seasonal := make([]float64, n)
	residual := make([]float64, n)
	for i := range x {
		seasonal[i] = idx[i%period]
		if math.IsNaN(trend[i]) {
			residual[i] = math.NaN()
			continue
		}
		if model == Additive {
			residual[i] = x[i] - trend[i] - seasonal[i]
		} else {
			residual[i] = x[i] / (trend[i] * seasonal[i])
		}
	}
	return &Result{
		Trend: trend, Seasonal: seasonal, Residual: residual,
		SeasonalIndices: idx, Period: period, Model: model,
	}, nil
}

// centredMA returns the centred moving average of order period. For even
// periods it uses the standard 2×period average so the window is centred.
// The first and last half-window entries are NaN.
func centredMA(x []float64, period int) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	half := period / 2
	if period%2 == 1 {
		for i := half; i < n-half; i++ {
			var s float64
			for j := i - half; j <= i+half; j++ {
				s += x[j]
			}
			out[i] = s / float64(period)
		}
		return out
	}
	// Even period: weights 0.5, 1, …, 1, 0.5 over period+1 points.
	for i := half; i < n-half; i++ {
		s := 0.5*x[i-half] + 0.5*x[i+half]
		for j := i - half + 1; j <= i+half-1; j++ {
			s += x[j]
		}
		out[i] = s / float64(period)
	}
	return out
}

// SeasonalStrength returns the Hyndman strength-of-seasonality statistic
// F_s = max(0, 1 − Var(residual)/Var(seasonal+residual)) of a
// decomposition, in [0, 1]. Values above ~0.3 indicate usable seasonality.
func (r *Result) SeasonalStrength() float64 {
	var sr, rr []float64
	for i := range r.Residual {
		if math.IsNaN(r.Residual[i]) {
			continue
		}
		rr = append(rr, r.Residual[i])
		sr = append(sr, r.Seasonal[i]+r.Residual[i])
	}
	vr := variance(rr)
	vsr := variance(sr)
	if vsr == 0 {
		return 0
	}
	f := 1 - vr/vsr
	if f < 0 {
		return 0
	}
	return f
}

func variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	var m float64
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	var ss float64
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(x)-1)
}
