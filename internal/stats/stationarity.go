package stats

import (
	"fmt"
	"math"
)

// ADFRegression selects the deterministic terms included in the
// Dickey-Fuller regression.
type ADFRegression int

const (
	// ADFConstant includes an intercept only (the usual choice for
	// resource-consumption series that level off).
	ADFConstant ADFRegression = iota
	// ADFTrend includes an intercept and a linear time trend, for series
	// with visible growth such as the paper's OLTP experiment.
	ADFTrend
)

// ADFResult reports an augmented Dickey-Fuller unit-root test.
type ADFResult struct {
	Stat       float64 // t statistic on the lagged level
	PValue     float64 // approximate, by interpolation of MacKinnon values
	Lags       int     // augmentation lags used
	Stationary bool    // true when the unit root is rejected at 5%
	Crit1      float64 // 1% critical value
	Crit5      float64 // 5% critical value
	Crit10     float64 // 10% critical value
}

// ADF runs the augmented Dickey-Fuller test on x:
//
//	Δy_t = c (+ βt) + γ·y_{t−1} + Σ δ_i·Δy_{t−i} + ε_t
//
// The null hypothesis is a unit root (non-stationary). lags < 0 selects the
// augmentation order automatically with the Schwert rule truncated by AIC.
// This is the §4 "Time Domain … Dicky-Fuller" check that decides the
// differencing order d.
func ADF(x []float64, reg ADFRegression, lags int) (ADFResult, error) {
	n := len(x)
	if n < 12 {
		return ADFResult{}, fmt.Errorf("stats: ADF needs at least 12 observations, got %d", n)
	}
	maxLag := lags
	if lags < 0 {
		maxLag = int(math.Floor(12 * math.Pow(float64(n)/100, 0.25)))
		if maxLag > n/2-2 {
			maxLag = n/2 - 2
		}
	}
	// Δy, shared by every candidate lag's regression.
	dy := make([]float64, n-1)
	for t := 1; t < n; t++ {
		dy[t-1] = x[t] - x[t-1]
	}
	run := func(p int) (tstat float64, aic float64, err error) {
		// Usable sample: t = p .. len(dy)-1 (index into dy).
		m := len(dy) - p
		if m < 8+p {
			return 0, 0, fmt.Errorf("stats: ADF sample too short for %d lags", p)
		}
		y := make([]float64, m)
		lagLevel := make([]float64, m)
		trend := make([]float64, m)
		lagDiffs := make([][]float64, p)
		for i := range lagDiffs {
			lagDiffs[i] = make([]float64, m)
		}
		for i := 0; i < m; i++ {
			t := p + i // index into dy
			y[i] = dy[t]
			lagLevel[i] = x[t] // x index of y_{t-1} relative to dy[t] = x[t+1]-x[t]
			trend[i] = float64(t)
			for j := 0; j < p; j++ {
				lagDiffs[j][i] = dy[t-1-j]
			}
		}
		cols := [][]float64{lagLevel}
		if reg == ADFTrend {
			cols = append(cols, trend)
		}
		cols = append(cols, lagDiffs...)
		design := DesignMatrix(true, cols...)
		res, err := OLS(design, y)
		if err != nil {
			return 0, 0, err
		}
		// γ is the coefficient on the lagged level: column 1 (after intercept).
		tstat = res.TStat[1]
		// Gaussian AIC for lag selection.
		var sse float64
		for _, r := range res.Residuals {
			sse += r * r
		}
		k := float64(res.K)
		aic = float64(m)*math.Log(sse/float64(m)) + 2*k
		return tstat, aic, nil
	}

	bestLag := maxLag
	if lags < 0 {
		bestAIC := math.Inf(1)
		for p := 0; p <= maxLag; p++ {
			_, aic, err := run(p)
			if err != nil {
				continue
			}
			if aic < bestAIC {
				bestAIC = aic
				bestLag = p
			}
		}
	}
	tstat, _, err := run(bestLag)
	if err != nil {
		return ADFResult{}, err
	}

	c1, c5, c10 := adfCriticalValues(reg, n)
	res := ADFResult{
		Stat: tstat, Lags: bestLag,
		Crit1: c1, Crit5: c5, Crit10: c10,
		Stationary: tstat < c5,
	}
	res.PValue = adfPValue(tstat, reg)
	return res, nil
}

// adfCriticalValues returns finite-sample MacKinnon critical values via the
// response-surface polynomials c(n) = b0 + b1/n + b2/n².
func adfCriticalValues(reg ADFRegression, n int) (c1, c5, c10 float64) {
	fn := float64(n)
	poly := func(b0, b1, b2 float64) float64 { return b0 + b1/fn + b2/(fn*fn) }
	switch reg {
	case ADFTrend:
		c1 = poly(-3.9638, -8.353, -47.44)
		c5 = poly(-3.4126, -4.039, -17.83)
		c10 = poly(-3.1279, -2.418, -7.58)
	default: // constant
		c1 = poly(-3.4336, -5.999, -29.25)
		c5 = poly(-2.8621, -2.738, -8.36)
		c10 = poly(-2.5671, -1.438, -4.48)
	}
	return
}

// adfPValue approximates the asymptotic p-value by monotone interpolation
// over a tabulated grid of the Dickey-Fuller t distribution.
func adfPValue(t float64, reg ADFRegression) float64 {
	// Grids of (statistic, p) pairs from the asymptotic distribution.
	var grid [][2]float64
	if reg == ADFTrend {
		grid = [][2]float64{
			{-5.0, 0.0002}, {-4.5, 0.001}, {-3.96, 0.01}, {-3.66, 0.025},
			{-3.41, 0.05}, {-3.12, 0.10}, {-2.84, 0.20}, {-2.38, 0.43},
			{-1.90, 0.65}, {-1.50, 0.80}, {-1.00, 0.91}, {0.0, 0.985}, {1.0, 0.999},
		}
	} else {
		grid = [][2]float64{
			{-4.5, 0.0002}, {-4.0, 0.0012}, {-3.43, 0.01}, {-3.12, 0.025},
			{-2.86, 0.05}, {-2.57, 0.10}, {-2.23, 0.20}, {-1.62, 0.47},
			{-1.10, 0.71}, {-0.60, 0.86}, {0.0, 0.957}, {1.0, 0.995}, {2.0, 0.9999},
		}
	}
	if t <= grid[0][0] {
		return grid[0][1]
	}
	last := grid[len(grid)-1]
	if t >= last[0] {
		return last[1]
	}
	for i := 1; i < len(grid); i++ {
		if t <= grid[i][0] {
			x0, p0 := grid[i-1][0], grid[i-1][1]
			x1, p1 := grid[i][0], grid[i][1]
			frac := (t - x0) / (x1 - x0)
			return p0 + frac*(p1-p0)
		}
	}
	return last[1]
}
