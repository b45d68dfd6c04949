package ets

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func TestSESFlatSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	y := make([]float64, 200)
	for i := range y {
		y[i] = 50 + rng.NormFloat64()
	}
	m, err := Fit(Simple, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// SES forecast is flat; all steps equal.
	for k := 1; k < 10; k++ {
		if fc.Mean[k] != fc.Mean[0] {
			t.Fatalf("SES forecast not flat: %v", fc.Mean)
		}
	}
	if math.Abs(fc.Mean[0]-50) > 1.5 {
		t.Fatalf("forecast = %v, want ~50", fc.Mean[0])
	}
}

func TestHoltLinearTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	y := make([]float64, 300)
	for i := range y {
		y[i] = 10 + 0.5*float64(i) + 0.3*rng.NormFloat64()
	}
	m, err := Fit(Holt, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(20, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Slope ~0.5 should continue.
	slope := (fc.Mean[19] - fc.Mean[0]) / 19
	if math.Abs(slope-0.5) > 0.1 {
		t.Fatalf("forecast slope = %v, want ~0.5", slope)
	}
	truth := 10 + 0.5*float64(300+19)
	if math.Abs(fc.Mean[19]-truth) > 3 {
		t.Fatalf("forecast[19] = %v, want ~%v", fc.Mean[19], truth)
	}
}

func TestDampedTrendFlattens(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	y := make([]float64, 300)
	for i := range y {
		y[i] = 10 + 0.5*float64(i) + 0.3*rng.NormFloat64()
	}
	m, err := Fit(DampedTrend, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Phi >= 1 {
		t.Fatalf("phi = %v, must be < 1", m.Phi)
	}
	fc, err := m.Forecast(200, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Damped increments shrink: step sizes decrease along the horizon.
	early := fc.Mean[1] - fc.Mean[0]
	late := fc.Mean[199] - fc.Mean[198]
	if math.Abs(late) > math.Abs(early) {
		t.Fatalf("damping failed: early step %v, late step %v", early, late)
	}
}

func TestHoltWintersSeasonal(t *testing.T) {
	// The paper's HES case: trend + daily season in hourly data.
	rng := rand.New(rand.NewSource(4))
	n, period := 480, 24
	y := make([]float64, n)
	for i := range y {
		y[i] = 30 + 0.05*float64(i) + 8*math.Sin(2*math.Pi*float64(i)/24) + 0.5*rng.NormFloat64()
	}
	m, err := Fit(HoltWinters, y, FitOptions{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(24, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, 24)
	for k := range truth {
		i := n + k
		truth[k] = 30 + 0.05*float64(i) + 8*math.Sin(2*math.Pi*float64(i)/24)
	}
	if rmse := metrics.RMSE(truth, fc.Mean); rmse > 2 {
		t.Fatalf("HW forecast RMSE = %v, want < 2", rmse)
	}
}

func TestHoltWintersRequiresPeriod(t *testing.T) {
	y := make([]float64, 100)
	if _, err := Fit(HoltWinters, y, FitOptions{}); err == nil {
		t.Fatal("missing period should fail")
	}
	if _, err := Fit(HoltWinters, y[:10], FitOptions{Period: 24}); err == nil {
		t.Fatal("short series should fail")
	}
}

func TestFitShortSeries(t *testing.T) {
	if _, err := Fit(Simple, []float64{1, 2}, FitOptions{}); err == nil {
		t.Fatal("short series should fail")
	}
}

func TestForecastValidation(t *testing.T) {
	y := make([]float64, 50)
	for i := range y {
		y[i] = float64(i)
	}
	m, err := Fit(Holt, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(0, 0.95); err == nil {
		t.Fatal("h=0 should fail")
	}
	if _, err := m.Forecast(5, 0); err == nil {
		t.Fatal("level=0 should fail")
	}
}

func TestForecastIntervalsWiden(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	y := make([]float64, 200)
	for i := range y {
		y[i] = 20 + rng.NormFloat64()
	}
	m, err := Fit(Simple, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(20, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if fc.SE[19] <= fc.SE[0] {
		t.Fatal("SE must widen with horizon")
	}
	for k := 0; k < 20; k++ {
		if !(fc.Lower[k] < fc.Mean[k] && fc.Mean[k] < fc.Upper[k]) {
			t.Fatal("interval ordering broken")
		}
	}
}

func TestSmoothingParamsInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	y := make([]float64, 300)
	for i := range y {
		y[i] = 10 + 3*math.Sin(2*math.Pi*float64(i)/12) + rng.NormFloat64()
	}
	m, err := Fit(HoltWintersDamped, y, FitOptions{Period: 12})
	if err != nil {
		t.Fatal(err)
	}
	if m.Alpha <= 0 || m.Alpha >= 1 {
		t.Fatalf("alpha = %v out of (0,1)", m.Alpha)
	}
	if m.Beta < 0 || m.Beta > m.Alpha {
		t.Fatalf("beta = %v violates 0 <= beta <= alpha", m.Beta)
	}
	if m.Gamma < 0 || m.Gamma > 1-m.Alpha {
		t.Fatalf("gamma = %v violates 0 <= gamma <= 1-alpha", m.Gamma)
	}
	if m.Phi < 0.8 || m.Phi > 0.99 {
		t.Fatalf("phi = %v outside damping bounds", m.Phi)
	}
}

func TestResidualsAndFittedAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	y := make([]float64, 100)
	for i := range y {
		y[i] = 5 + rng.NormFloat64()
	}
	m, err := Fit(Simple, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fitted) != len(y) || len(m.Residuals) != len(y) {
		t.Fatal("alignment broken")
	}
	for i := range y {
		if math.Abs(y[i]-m.Fitted[i]-m.Residuals[i]) > 1e-9 {
			t.Fatal("fitted + residual != actual")
		}
	}
}

func TestMethodString(t *testing.T) {
	if Simple.String() != "SES" || HoltWinters.String() != "Holt-Winters" {
		t.Fatal("method names wrong")
	}
}
