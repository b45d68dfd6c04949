package arima

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// simulateARMA generates an ARMA(p,q) series with the Box-Jenkins sign
// convention and N(0, sigma²) innovations.
func simulateARMA(n int, phi, theta []float64, c, sigma float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	burn := 200
	total := n + burn
	y := make([]float64, total)
	a := make([]float64, total)
	for t := 0; t < total; t++ {
		a[t] = sigma * rng.NormFloat64()
		v := c + a[t]
		for i, p := range phi {
			if t-1-i >= 0 {
				v += p * y[t-1-i]
			}
		}
		for j, th := range theta {
			if t-1-j >= 0 {
				v -= th * a[t-1-j]
			}
		}
		y[t] = v
	}
	return y[burn:]
}

func TestFitAR1RecoversPhi(t *testing.T) {
	y := simulateARMA(3000, []float64{0.7}, nil, 0, 1, 1)
	m, err := Fit(Spec{P: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.7) > 0.05 {
		t.Fatalf("phi = %v, want ~0.7", m.AR[0])
	}
	if math.Abs(m.Sigma2-1) > 0.1 {
		t.Fatalf("sigma2 = %v, want ~1", m.Sigma2)
	}
}

func TestFitMA1RecoversTheta(t *testing.T) {
	y := simulateARMA(4000, nil, []float64{0.5}, 0, 1, 2)
	m, err := Fit(Spec{Q: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MA[0]-0.5) > 0.06 {
		t.Fatalf("theta = %v, want ~0.5", m.MA[0])
	}
}

func TestFitARMA11(t *testing.T) {
	y := simulateARMA(5000, []float64{0.6}, []float64{0.3}, 0, 1, 3)
	m, err := Fit(Spec{P: 1, Q: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.6) > 0.08 || math.Abs(m.MA[0]-0.3) > 0.1 {
		t.Fatalf("phi=%v theta=%v, want 0.6/0.3", m.AR[0], m.MA[0])
	}
}

func TestFitWithInterceptRecoversMean(t *testing.T) {
	// AR(1) around mean 50: y = c + 0.5 y_{t-1}, mean = c/(1−0.5).
	y := simulateARMA(3000, []float64{0.5}, nil, 25, 1, 4)
	m, err := Fit(Spec{P: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-25) > 2 {
		t.Fatalf("intercept = %v, want ~25", m.Intercept)
	}
}

func TestFitARIMA011IsDrift(t *testing.T) {
	// Integrated MA: differences are MA(1).
	dy := simulateARMA(2001, nil, []float64{0.4}, 0, 1, 5)
	y := make([]float64, 2000)
	acc := 0.0
	for i := range y {
		acc += dy[i]
		y[i] = acc
	}
	m, err := Fit(Spec{D: 1, Q: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MA[0]-0.4) > 0.08 {
		t.Fatalf("theta = %v, want ~0.4", m.MA[0])
	}
	// No intercept should be estimated with d=1.
	if m.Intercept != 0 {
		t.Fatalf("intercept = %v, want 0 with differencing", m.Intercept)
	}
}

func TestFitSeasonalSAR(t *testing.T) {
	// Pure seasonal AR with period 12: y_t = 0.6 y_{t−12} + a_t.
	rng := rand.New(rand.NewSource(6))
	n := 3000
	y := make([]float64, n)
	for tt := 12; tt < n; tt++ {
		y[tt] = 0.6*y[tt-12] + rng.NormFloat64()
	}
	m, err := Fit(Spec{SP: 1, S: 12, P: 0, Q: 0, D: 0}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.SAR[0]-0.6) > 0.06 {
		t.Fatalf("Phi = %v, want ~0.6", m.SAR[0])
	}
}

func TestFitExogenousRecoversBeta(t *testing.T) {
	// y = 5·pulse + AR(1) noise. The pulse fires every 25 steps.
	rng := rand.New(rand.NewSource(7))
	n := 2000
	pulse := make([]float64, n)
	for i := 0; i < n; i += 25 {
		pulse[i] = 1
	}
	noise := make([]float64, n)
	for tt := 1; tt < n; tt++ {
		noise[tt] = 0.5*noise[tt-1] + 0.3*rng.NormFloat64()
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 10 + 5*pulse[i] + noise[i]
	}
	m, err := Fit(Spec{P: 1}, y, [][]float64{pulse}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Beta[0]-5) > 0.3 {
		t.Fatalf("beta = %v, want ~5", m.Beta[0])
	}
	if math.Abs(m.AR[0]-0.5) > 0.1 {
		t.Fatalf("phi = %v, want ~0.5", m.AR[0])
	}
}

func TestFitValidation(t *testing.T) {
	y := simulateARMA(100, []float64{0.5}, nil, 0, 1, 8)
	if _, err := Fit(Spec{}, y, nil, FitOptions{}); err == nil {
		t.Fatal("empty spec should fail")
	}
	if _, err := Fit(Spec{P: 1}, y[:5], nil, FitOptions{}); err == nil {
		t.Fatal("tiny series should fail")
	}
	if _, err := Fit(Spec{P: 1}, y, [][]float64{{1, 2}}, FitOptions{}); err == nil {
		t.Fatal("mismatched exog should fail")
	}
}

func TestFitResidualsAreWhite(t *testing.T) {
	y := simulateARMA(2000, []float64{0.8}, nil, 0, 1, 9)
	m, err := Fit(Spec{P: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Residual mean ~ 0 and low autocorrelation.
	resid := m.Residuals[m.Spec.MaxARLag():]
	var mean float64
	for _, r := range resid {
		mean += r
	}
	mean /= float64(len(resid))
	if math.Abs(mean) > 0.1 {
		t.Fatalf("residual mean = %v", mean)
	}
}

func TestAICOrderSelection(t *testing.T) {
	// True model AR(1); AIC should not prefer AR(3) by a large margin.
	y := simulateARMA(1500, []float64{0.6}, nil, 0, 1, 10)
	m1, err := Fit(Spec{P: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Fit(Spec{P: 3}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m3.AIC < m1.AIC-6 {
		t.Fatalf("AIC prefers overfit model: AR1=%v AR3=%v", m1.AIC, m3.AIC)
	}
}

func TestForecastAR1ConvergesToMean(t *testing.T) {
	y := simulateARMA(2000, []float64{0.5}, nil, 10, 1, 11) // mean 20
	m, err := Fit(Spec{P: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(100, nil, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fc.Mean[99]-20) > 1.5 {
		t.Fatalf("long-run forecast = %v, want ~20", fc.Mean[99])
	}
	// SE grows with horizon and approaches sqrt(sigma2/(1-phi^2)).
	if fc.SE[0] >= fc.SE[99] {
		t.Fatal("SE should widen with horizon")
	}
	limit := math.Sqrt(m.Sigma2 / (1 - m.AR[0]*m.AR[0]))
	if math.Abs(fc.SE[99]-limit) > 0.1*limit {
		t.Fatalf("SE limit = %v, want ~%v", fc.SE[99], limit)
	}
}

func TestForecastIntervalsContainTruth(t *testing.T) {
	// Simulate many short futures; ~95% of 1-step truths should fall in
	// the interval. Single realisation: just sanity-check nesting.
	y := simulateARMA(1000, []float64{0.6}, nil, 0, 1, 12)
	m, err := Fit(Spec{P: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(10, nil, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if !(fc.Lower[k] < fc.Mean[k] && fc.Mean[k] < fc.Upper[k]) {
			t.Fatalf("interval ordering broken at %d", k)
		}
	}
	wide, err := m.Forecast(10, nil, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Upper[5]-wide.Lower[5] <= fc.Upper[5]-fc.Lower[5] {
		t.Fatal("99% interval should be wider than 95%")
	}
}

func TestForecastWithDifferencingTracksTrend(t *testing.T) {
	// Deterministic-ish trend: ARIMA(0,1,0) with drift-free CSS should
	// still track an up-trending random walk reasonably via integration.
	rng := rand.New(rand.NewSource(13))
	n := 500
	y := make([]float64, n)
	for tt := 1; tt < n; tt++ {
		y[tt] = y[tt-1] + 0.5 + 0.1*rng.NormFloat64()
	}
	m, err := Fit(Spec{P: 1, D: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(20, nil, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Forecast must keep rising (the AR on differences learns the drift).
	if fc.Mean[19] <= y[n-1] {
		t.Fatalf("trend lost: last=%v fc=%v", y[n-1], fc.Mean[19])
	}
}

func TestForecastSeasonalPattern(t *testing.T) {
	// Strong period-12 pattern; SARIMA should repeat it.
	rng := rand.New(rand.NewSource(14))
	n := 600
	y := make([]float64, n)
	for i := range y {
		y[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/12) + 0.5*rng.NormFloat64()
	}
	m, err := Fit(Spec{P: 1, SD: 1, SQ: 1, S: 12}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(24, nil, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, 24)
	for k := range truth {
		truth[k] = 50 + 10*math.Sin(2*math.Pi*float64(n+k)/12)
	}
	if rmse := metrics.RMSE(truth, fc.Mean); rmse > 2 {
		t.Fatalf("seasonal forecast RMSE = %v, want < 2", rmse)
	}
}

func TestForecastExogenousFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 1000
	pulse := make([]float64, n)
	for i := 0; i < n; i += 20 {
		pulse[i] = 1
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 10 + 8*pulse[i] + 0.2*rng.NormFloat64()
	}
	m, err := Fit(Spec{P: 1}, y, [][]float64{pulse}, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	futurePulse := make([]float64, 20)
	futurePulse[0] = 1 // pulse fires at step 0 of the horizon (t=1000)
	fc, err := m.Forecast(20, [][]float64{futurePulse}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// The forecast must spike at the pulse and sit near 10 elsewhere.
	if fc.Mean[0]-fc.Mean[5] < 5 {
		t.Fatalf("pulse effect missing: %v vs %v", fc.Mean[0], fc.Mean[5])
	}
}

func TestForecastValidation(t *testing.T) {
	y := simulateARMA(300, []float64{0.5}, nil, 0, 1, 16)
	m, err := Fit(Spec{P: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(0, nil, 0.95); err == nil {
		t.Fatal("h=0 should fail")
	}
	if _, err := m.Forecast(5, nil, 1.5); err == nil {
		t.Fatal("bad level should fail")
	}
	if _, err := m.Forecast(5, [][]float64{{1, 2, 3, 4, 5}}, 0.95); err == nil {
		t.Fatal("unexpected exog should fail")
	}
}

func TestNumParams(t *testing.T) {
	y := simulateARMA(500, []float64{0.5}, nil, 0, 1, 18)
	m, err := Fit(Spec{P: 1, Q: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// p + q + intercept + sigma2 = 4.
	if got := m.NumParams(); got != 4 {
		t.Fatalf("NumParams = %d, want 4", got)
	}
}

func TestPureDifferencingModel(t *testing.T) {
	// (0,1,0): random walk model fits without free ARMA parameters.
	rng := rand.New(rand.NewSource(19))
	n := 300
	y := make([]float64, n)
	for tt := 1; tt < n; tt++ {
		y[tt] = y[tt-1] + rng.NormFloat64()
	}
	m, err := Fit(Spec{D: 1}, y, nil, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(5, nil, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Random-walk forecast is flat at the last value.
	for k := 0; k < 5; k++ {
		if math.Abs(fc.Mean[k]-y[n-1]) > 1e-6 {
			t.Fatalf("RW forecast should be flat at %v, got %v", y[n-1], fc.Mean)
		}
	}
}

// TestForecastIntervalCalibration is the statistical quality check: over
// many simulated replications, ~95% of 1-step-ahead truths must fall in
// the 95% interval.
func TestForecastIntervalCalibration(t *testing.T) {
	inCount, total := 0, 0
	for rep := 0; rep < 60; rep++ {
		full := simulateARMA(520, []float64{0.6}, nil, 0, 1, int64(500+rep))
		train, truth := full[:519], full[519]
		m, err := Fit(Spec{P: 1}, train, nil, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fc, err := m.Forecast(1, nil, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if truth >= fc.Lower[0] && truth <= fc.Upper[0] {
			inCount++
		}
	}
	coverage := float64(inCount) / float64(total)
	// Binomial(60, 0.95): anything >= ~85% passes comfortably.
	if coverage < 0.85 {
		t.Fatalf("95%% interval covered only %.0f%% of truths", coverage*100)
	}
}
