package stats

import (
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
