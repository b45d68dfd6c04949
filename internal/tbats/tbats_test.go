package tbats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func seasonalSeries(n int, periods []int, amps []float64, trend, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	y := make([]float64, n)
	for i := range y {
		v := 100 + trend*float64(i) + noise*rng.NormFloat64()
		for j, p := range periods {
			v += amps[j] * math.Sin(2*math.Pi*float64(i)/float64(p))
		}
		y[i] = v
	}
	return y
}

func TestConfigValidate(t *testing.T) {
	good := Config{Periods: []int{24}, Harmonics: []int{3}, UseTrend: true}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Periods: []int{24}, Harmonics: []int{1, 2}},
		{Periods: []int{1}, Harmonics: []int{1}},
		{Periods: []int{4}, Harmonics: []int{3}},
		{Periods: []int{24}, Harmonics: []int{1}, UseDamping: true},
		{Periods: []int{24}, Harmonics: []int{1}, ARMAP: 5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestConfigString(t *testing.T) {
	c := Config{Periods: []int{24, 168}, Harmonics: []int{3, 2}, UseTrend: true, UseDamping: true, ARMAP: 1, ARMAQ: 1}
	s := c.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String = %q", s)
	}
}

func TestFitSingleSeasonForecast(t *testing.T) {
	n := 480
	y := seasonalSeries(n, []int{24}, []float64{10}, 0, 0.5, 1)
	cfg := Config{Periods: []int{24}, Harmonics: []int{1}}
	m, err := Fit(cfg, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(24, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, 24)
	for k := range truth {
		truth[k] = 100 + 10*math.Sin(2*math.Pi*float64(n+k)/24)
	}
	if rmse := metrics.RMSE(truth, fc.Mean); rmse > 3 {
		t.Fatalf("forecast RMSE = %v, want < 3", rmse)
	}
}

func TestFitTrendContinues(t *testing.T) {
	n := 480
	y := seasonalSeries(n, []int{24}, []float64{5}, 0.1, 0.5, 2)
	cfg := Config{Periods: []int{24}, Harmonics: []int{1}, UseTrend: true}
	m, err := Fit(cfg, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(48, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Mean forecast at step 48 should be above the last level by ~0.1*48.
	rise := fc.Mean[47] - y[n-1]
	if rise < 2 {
		t.Fatalf("trend not extrapolated: rise = %v", rise)
	}
}

func TestFitMultipleSeasonality(t *testing.T) {
	// The paper's headline TBATS case: two seasons (24 and 168).
	n := 1008
	y := seasonalSeries(n, []int{24, 168}, []float64{10, 5}, 0, 0.5, 3)
	cfg := Config{Periods: []int{24, 168}, Harmonics: []int{2, 2}}
	m, err := Fit(cfg, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(48, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, 48)
	for k := range truth {
		i := n + k
		truth[k] = 100 + 10*math.Sin(2*math.Pi*float64(i)/24) + 5*math.Sin(2*math.Pi*float64(i)/168)
	}
	if rmse := metrics.RMSE(truth, fc.Mean); rmse > 4 {
		t.Fatalf("multi-seasonal RMSE = %v, want < 4", rmse)
	}
}

func TestFitBoxCox(t *testing.T) {
	// Multiplicative seasonality benefits from the transform; mainly test
	// that the pipeline round-trips and stays finite.
	rng := rand.New(rand.NewSource(4))
	n := 480
	y := make([]float64, n)
	for i := range y {
		base := 100 * math.Exp(0.001*float64(i))
		y[i] = base * (1 + 0.3*math.Sin(2*math.Pi*float64(i)/24)) * (1 + 0.01*rng.NormFloat64())
	}
	cfg := Config{Periods: []int{24}, Harmonics: []int{1}, UseBoxCox: true, UseTrend: true}
	m, err := Fit(cfg, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(24, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range fc.Mean {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite forecast at %d", k)
		}
		if !(fc.Lower[k] <= fc.Mean[k] && fc.Mean[k] <= fc.Upper[k]) {
			t.Fatalf("interval ordering broken at %d", k)
		}
	}
}

func TestFitARMAErrors(t *testing.T) {
	// Seasonal series with AR(1) noise — ARMA error config should fit.
	rng := rand.New(rand.NewSource(5))
	n := 480
	y := make([]float64, n)
	ar := 0.0
	for i := range y {
		ar = 0.6*ar + 0.5*rng.NormFloat64()
		y[i] = 100 + 10*math.Sin(2*math.Pi*float64(i)/24) + ar
	}
	cfg := Config{Periods: []int{24}, Harmonics: []int{1}, ARMAP: 1, ARMAQ: 1}
	m, err := Fit(cfg, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ARPhi) != 1 || len(m.MATheta) != 1 {
		t.Fatal("ARMA coefficients missing")
	}
	if _, err := m.Forecast(10, 0.9); err != nil {
		t.Fatal(err)
	}
}

func TestFitTooShort(t *testing.T) {
	if _, err := Fit(Config{Periods: []int{24}, Harmonics: []int{1}}, make([]float64, 30), FitOptions{}); err == nil {
		t.Fatal("short series should fail")
	}
}

func TestForecastValidation(t *testing.T) {
	y := seasonalSeries(200, []int{12}, []float64{5}, 0, 0.5, 6)
	m, err := Fit(Config{Periods: []int{12}, Harmonics: []int{1}}, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(0, 0.95); err == nil {
		t.Fatal("h=0 should fail")
	}
	if _, err := m.Forecast(5, 2); err == nil {
		t.Fatal("bad level should fail")
	}
}

func TestForecastSEWidens(t *testing.T) {
	y := seasonalSeries(300, []int{12}, []float64{5}, 0, 1, 7)
	m, err := Fit(Config{Periods: []int{12}, Harmonics: []int{1}, UseTrend: true}, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(36, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if fc.SE[35] <= fc.SE[0] {
		t.Fatalf("SE should widen: %v .. %v", fc.SE[0], fc.SE[35])
	}
}

func TestFittedValuesFinite(t *testing.T) {
	y := seasonalSeries(240, []int{24}, []float64{8}, 0, 0.5, 9)
	m, err := Fit(Config{Periods: []int{24}, Harmonics: []int{2}}, y, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fitted) != len(y) {
		t.Fatal("fitted length mismatch")
	}
	for i, v := range m.Fitted {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite fitted value at %d", i)
		}
	}
}
