package timeseries

import (
	"fmt"
	"math"
)

// Diff returns the d-th order differences of x: applying (1−B) d times.
// The result has length len(x)−d. It panics if d < 0 and returns an empty
// slice when the series is too short.
func Diff(x []float64, d int) []float64 {
	if d < 0 {
		panic("timeseries: negative differencing order")
	}
	out := append([]float64(nil), x...)
	for i := 0; i < d; i++ {
		if len(out) <= 1 {
			return nil
		}
		next := make([]float64, len(out)-1)
		for t := 1; t < len(out); t++ {
			next[t-1] = out[t] - out[t-1]
		}
		out = next
	}
	return out
}

// SeasonalDiff applies (1−Bˢ) D times: out[t] = x[t] − x[t−s], iterated.
// The result has length len(x)−D·s.
func SeasonalDiff(x []float64, s, d int) []float64 {
	if d < 0 || s <= 0 {
		panic("timeseries: invalid seasonal differencing")
	}
	out := append([]float64(nil), x...)
	for i := 0; i < d; i++ {
		if len(out) <= s {
			return nil
		}
		next := make([]float64, len(out)-s)
		for t := s; t < len(out); t++ {
			next[t-s] = out[t] - out[t-s]
		}
		out = next
	}
	return out
}

// Difference applies seasonal differencing D times with period s, then
// regular differencing d times — the (1−B)ᵈ(1−Bˢ)ᴰ operator of the
// paper's equation (5). It returns the differenced series.
func Difference(x []float64, d, D, s int) []float64 {
	w := x
	if D > 0 {
		w = SeasonalDiff(w, s, D)
	}
	return Diff(w, d)
}

// IntegrateForecast reverses Difference for a block of h future
// differenced values. history is the original (undifferenced) series the
// model was fitted on; fc holds forecasts on the differenced scale.
// It reconstructs level forecasts by inverting (1−B)ᵈ(1−Bˢ)ᴰ step by step.
func IntegrateForecast(history []float64, fc []float64, d, D, s int) []float64 {
	// Build the chain of partially differenced histories:
	// chain[0] = history, chain[1..D] = seasonal diffs, then d regular diffs.
	chains := [][]float64{append([]float64(nil), history...)}
	cur := chains[0]
	for i := 0; i < D; i++ {
		cur = SeasonalDiff(cur, s, 1)
		chains = append(chains, cur)
	}
	for i := 0; i < d; i++ {
		cur = Diff(cur, 1)
		chains = append(chains, cur)
	}
	// Work backwards: forecasts of the deepest level are fc; undo each
	// differencing step by cumulating against the tail of the previous
	// level's history.
	level := append([]float64(nil), fc...)
	step := len(chains) - 1
	// Undo regular differencing (innermost d steps).
	for i := 0; i < d; i++ {
		step--
		prev := chains[step]
		out := make([]float64, len(level))
		last := prev[len(prev)-1]
		for t := range level {
			last += level[t]
			out[t] = last
		}
		level = out
	}
	// Undo seasonal differencing.
	for i := 0; i < D; i++ {
		step--
		prev := chains[step]
		out := make([]float64, len(level))
		for t := range level {
			// y[T+t] = level[t] + y[T+t−s]; the lagged value comes from
			// prev's tail, or from already-reconstructed forecasts.
			var lag float64
			idx := t - s
			if idx < 0 {
				lag = prev[len(prev)+idx]
			} else {
				lag = out[idx]
			}
			out[t] = level[t] + lag
		}
		level = out
	}
	return level
}

// BoxCox applies the Box-Cox transform with parameter lambda:
// (xᵏ−1)/λ for λ≠0, log x for λ=0. All values must be positive; use
// BoxCoxShift to find a shift for series touching zero.
func BoxCox(x []float64, lambda float64) ([]float64, error) {
	out := make([]float64, len(x))
	for i, v := range x {
		if v <= 0 {
			return nil, fmt.Errorf("timeseries: Box-Cox requires positive data (x[%d]=%v)", i, v)
		}
		if lambda == 0 {
			out[i] = math.Log(v)
		} else {
			out[i] = (math.Pow(v, lambda) - 1) / lambda
		}
	}
	return out, nil
}

// InverseBoxCox inverts BoxCox.
func InverseBoxCox(y []float64, lambda float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		if lambda == 0 {
			out[i] = math.Exp(v)
		} else {
			arg := lambda*v + 1
			if arg <= 0 {
				// Clamp: the inverse is undefined; return the boundary.
				out[i] = 0
				continue
			}
			out[i] = math.Pow(arg, 1/lambda)
		}
	}
	return out
}

// BoxCoxShift returns a shift c such that min(x)+c > 0, with a small
// positive margin, so that BoxCox(x+c, λ) is defined.
func BoxCoxShift(x []float64) float64 {
	min := math.Inf(1)
	for _, v := range x {
		if v < min {
			min = v
		}
	}
	if min > 0 {
		return 0
	}
	return -min + 1e-6 + 0.001*math.Abs(min)
}

// GuerreroLambda selects a Box-Cox λ from the grid [-1, 2] by Guerrero's
// method: split the series into blocks of one seasonal period and choose
// the λ minimising the coefficient of variation of block means' relation
// to block standard deviations. period must be >= 2.
func GuerreroLambda(x []float64, period int) float64 {
	if period < 2 {
		period = 2
	}
	nBlocks := len(x) / period
	if nBlocks < 2 {
		return 1
	}
	means := make([]float64, nBlocks)
	sds := make([]float64, nBlocks)
	for b := 0; b < nBlocks; b++ {
		blk := x[b*period : (b+1)*period]
		var m float64
		for _, v := range blk {
			m += v
		}
		m /= float64(period)
		var ss float64
		for _, v := range blk {
			d := v - m
			ss += d * d
		}
		means[b] = m
		sds[b] = math.Sqrt(ss / float64(period-1))
	}
	best, bestCV := 1.0, math.Inf(1)
	for lam := -1.0; lam <= 2.0001; lam += 0.05 {
		ratios := make([]float64, 0, nBlocks)
		ok := true
		for b := 0; b < nBlocks; b++ {
			if means[b] <= 0 {
				ok = false
				break
			}
			ratios = append(ratios, sds[b]/math.Pow(means[b], 1-lam))
		}
		if !ok {
			continue
		}
		var m float64
		for _, r := range ratios {
			m += r
		}
		m /= float64(len(ratios))
		if m == 0 {
			continue
		}
		var ss float64
		for _, r := range ratios {
			d := r - m
			ss += d * d
		}
		cv := math.Sqrt(ss/float64(len(ratios))) / m
		if cv < bestCV {
			bestCV = cv
			best = lam
		}
	}
	// Snap tiny values to exactly zero (log transform).
	if math.Abs(best) < 0.025 {
		best = 0
	}
	return best
}
