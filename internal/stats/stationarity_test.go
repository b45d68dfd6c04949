package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomWalk returns a unit-root process.
func randomWalk(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for t := 1; t < n; t++ {
		x[t] = x[t-1] + rng.NormFloat64()
	}
	return x
}

func TestADFStationarySeries(t *testing.T) {
	x := ar1(600, 0.5, 21)
	res, err := ADF(x, ADFConstant, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stationary {
		t.Fatalf("AR(0.5) should be stationary: stat=%v crit5=%v p=%v", res.Stat, res.Crit5, res.PValue)
	}
	if res.PValue > 0.05 {
		t.Fatalf("p-value = %v, want < 0.05", res.PValue)
	}
}

func TestADFRandomWalk(t *testing.T) {
	x := randomWalk(600, 22)
	res, err := ADF(x, ADFConstant, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stationary {
		t.Fatalf("random walk flagged stationary: stat=%v crit5=%v", res.Stat, res.Crit5)
	}
	if res.PValue < 0.05 {
		t.Fatalf("p-value = %v, want >= 0.05", res.PValue)
	}
}

func TestADFTrendStationary(t *testing.T) {
	// Trend-stationary series: stationary around a deterministic trend.
	rng := rand.New(rand.NewSource(23))
	n := 600
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.05*float64(i) + rng.NormFloat64()
	}
	res, err := ADF(x, ADFTrend, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stationary {
		t.Fatalf("trend-stationary series not detected: stat=%v crit5=%v", res.Stat, res.Crit5)
	}
}

func TestADFTooShort(t *testing.T) {
	if _, err := ADF([]float64{1, 2, 3}, ADFConstant, -1); err == nil {
		t.Fatal("expected error for short series")
	}
}

func TestADFCriticalValuesOrdering(t *testing.T) {
	for _, reg := range []ADFRegression{ADFConstant, ADFTrend} {
		c1, c5, c10 := adfCriticalValues(reg, 500)
		if !(c1 < c5 && c5 < c10 && c10 < 0) {
			t.Fatalf("critical values out of order: %v %v %v", c1, c5, c10)
		}
	}
}

func TestADFPValueMonotone(t *testing.T) {
	prev := -1.0
	for s := -6.0; s <= 2.0; s += 0.25 {
		p := adfPValue(s, ADFConstant)
		if p < prev-1e-12 {
			t.Fatalf("p-value not monotone at %v", s)
		}
		if p < 0 || p > 1 {
			t.Fatalf("p out of range: %v", p)
		}
		prev = p
	}
}

func TestADFFixedLag(t *testing.T) {
	x := ar1(300, 0.5, 28)
	res, err := ADF(x, ADFConstant, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lags != 3 {
		t.Fatalf("lags = %d, want 3", res.Lags)
	}
	if math.IsNaN(res.Stat) {
		t.Fatal("NaN statistic")
	}
}

// adfReference is the ADF lag search built from fresh parts for every lag:
// its own columns, DesignMatrix, a fresh OLS, and an upward scan that
// re-runs the chosen lag. ADF's shared scratch and downward sweep must
// reproduce it exactly.
func adfReference(x []float64, reg ADFRegression, lags int) (stat float64, lag int, err error) {
	n := len(x)
	maxLag := lags
	if lags < 0 {
		maxLag = int(math.Floor(12 * math.Pow(float64(n)/100, 0.25)))
		if maxLag > n/2-2 {
			maxLag = n/2 - 2
		}
	}
	dy := make([]float64, n-1)
	for t := 1; t < n; t++ {
		dy[t-1] = x[t] - x[t-1]
	}
	run := func(p int) (float64, float64, error) {
		m := len(dy) - p
		if m < 8+p {
			return 0, 0, fmt.Errorf("stats: ADF sample too short for %d lags", p)
		}
		y := make([]float64, m)
		cols := [][]float64{make([]float64, m)}
		if reg == ADFTrend {
			cols = append(cols, make([]float64, m))
		}
		k0 := len(cols)
		for j := 0; j < p; j++ {
			cols = append(cols, make([]float64, m))
		}
		for i := 0; i < m; i++ {
			t := p + i
			y[i] = dy[t]
			cols[0][i] = x[t]
			if reg == ADFTrend {
				cols[1][i] = float64(t)
			}
			for j := 0; j < p; j++ {
				cols[k0+j][i] = dy[t-1-j]
			}
		}
		res, err := OLS(DesignMatrix(true, cols...), y)
		if err != nil {
			return 0, 0, err
		}
		var sse float64
		for _, r := range res.Residuals {
			sse += r * r
		}
		return res.TStat[1], float64(m)*math.Log(sse/float64(m)) + 2*float64(res.K), nil
	}
	bestLag := maxLag
	if lags < 0 {
		bestAIC := math.Inf(1)
		for p := 0; p <= maxLag; p++ {
			if _, aic, err := run(p); err == nil && aic < bestAIC {
				bestAIC, bestLag = aic, p
			}
		}
	}
	stat, _, err = run(bestLag)
	return stat, bestLag, err
}

// TestADFMatchesPerLagOLSOracle requires ADF to pick the same lag, the
// same statistic bits and the same error as adfReference, over noise,
// random walks, trends and deterministic sinusoids (whose lagged designs
// are rank deficient, so some lags fail and are skipped), with automatic
// and fixed lags and both regressions.
func TestADFMatchesPerLagOLSOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	series := [][]float64{
		make([]float64, 40), // constant: every lag fails
		randomWalk(12, 1),
	}
	for i := 0; i < 30; i++ {
		n := 20 + rng.Intn(500)
		x := make([]float64, n)
		for j := range x {
			switch i % 4 {
			case 0:
				x[j] = rng.NormFloat64()
			case 1:
				if j > 0 {
					x[j] = x[j-1] + rng.NormFloat64()
				}
			case 2:
				x[j] = 0.05*float64(j) + rng.NormFloat64()
			case 3:
				x[j] = 50 + 10*math.Sin(2*math.Pi*float64(j%24)/24) + 1.5*math.Sin(1.7*float64(j))
			}
		}
		series = append(series, x)
	}
	for i, x := range series {
		for _, reg := range []ADFRegression{ADFConstant, ADFTrend} {
			for _, lags := range []int{-1, 0, 3, len(x)} {
				got, err := ADF(x, reg, lags)
				stat, lag, wantErr := adfReference(x, reg, lags)
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("series %d reg %d lags %d: error %v, reference %v", i, reg, lags, err, wantErr)
				}
				if err == nil && (got.Lags != lag || math.Float64bits(got.Stat) != math.Float64bits(stat)) {
					t.Fatalf("series %d reg %d lags %d: lag %d stat %v, reference lag %d stat %v", i, reg, lags, got.Lags, got.Stat, lag, stat)
				}
			}
		}
	}
}
