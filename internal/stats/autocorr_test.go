package stats

import (
	"math"
	"math/rand"
	"testing"
)

// ar1 simulates an AR(1) process y_t = phi*y_{t-1} + e_t.
func ar1(n int, phi float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for t := 1; t < n; t++ {
		x[t] = phi*x[t-1] + rng.NormFloat64()
	}
	return x
}

func TestACFLagZeroIsOne(t *testing.T) {
	x := ar1(200, 0.5, 1)
	rho := ACF(x, 10)
	if rho[0] != 1 {
		t.Fatalf("ACF[0] = %v, want 1", rho[0])
	}
	if len(rho) != 11 {
		t.Fatalf("len = %d, want 11", len(rho))
	}
}

func TestACFAR1Decay(t *testing.T) {
	// For AR(1) with phi=0.8, ACF(k) ≈ 0.8^k.
	x := ar1(20000, 0.8, 2)
	rho := ACF(x, 5)
	for k := 1; k <= 5; k++ {
		want := math.Pow(0.8, float64(k))
		if math.Abs(rho[k]-want) > 0.05 {
			t.Errorf("ACF[%d] = %v, want ~%v", k, rho[k], want)
		}
	}
}

func TestACFWhiteNoiseNearZero(t *testing.T) {
	x := ar1(10000, 0, 3) // pure noise
	rho := ACF(x, 10)
	band := ConfidenceBand(len(x), 0.99)
	for k := 1; k <= 10; k++ {
		if math.Abs(rho[k]) > 1.5*band {
			t.Errorf("white-noise ACF[%d] = %v exceeds band %v", k, rho[k], band)
		}
	}
}

func TestACFConstantSeries(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	rho := ACF(x, 3)
	if rho[0] != 1 {
		t.Fatal("lag 0 must be 1")
	}
	for k := 1; k <= 3; k++ {
		if !math.IsNaN(rho[k]) {
			t.Fatalf("constant series ACF[%d] = %v, want NaN", k, rho[k])
		}
	}
}

func TestACFEmptyAndShort(t *testing.T) {
	rho := ACF(nil, 3)
	for _, v := range rho {
		if !math.IsNaN(v) {
			t.Fatal("empty series should give NaN")
		}
	}
	// Lags beyond series length are zero.
	rho = ACF([]float64{1, 2, 3}, 5)
	if rho[4] != 0 || rho[5] != 0 {
		t.Fatalf("long lags should be 0, got %v", rho)
	}
}

func TestPACFAR1CutsOff(t *testing.T) {
	// AR(1): PACF(1) ≈ phi, PACF(k>1) ≈ 0.
	x := ar1(20000, 0.7, 4)
	pacf := PACF(x, 6)
	if math.Abs(pacf[0]-0.7) > 0.03 {
		t.Fatalf("PACF[1] = %v, want ~0.7", pacf[0])
	}
	band := ConfidenceBand(len(x), 0.99)
	for k := 1; k < 6; k++ {
		if math.Abs(pacf[k]) > 2*band {
			t.Errorf("PACF at lag %d = %v should be ~0", k+1, pacf[k])
		}
	}
}

func TestPACFAR2(t *testing.T) {
	// AR(2): y_t = 0.5 y_{t-1} + 0.3 y_{t-2} + e. PACF(2) ≈ 0.3, PACF(3+) ≈ 0.
	rng := rand.New(rand.NewSource(5))
	n := 30000
	x := make([]float64, n)
	for t := 2; t < n; t++ {
		x[t] = 0.5*x[t-1] + 0.3*x[t-2] + rng.NormFloat64()
	}
	pacf := PACF(x, 5)
	if math.Abs(pacf[1]-0.3) > 0.03 {
		t.Fatalf("PACF[2] = %v, want ~0.3", pacf[1])
	}
	for k := 2; k < 5; k++ {
		if math.Abs(pacf[k]) > 0.03 {
			t.Errorf("PACF[%d] = %v, want ~0", k+1, pacf[k])
		}
	}
}

func TestPACFZeroLags(t *testing.T) {
	if got := PACF([]float64{1, 2, 3}, 0); got != nil {
		t.Fatal("maxLag=0 should return nil")
	}
}

func TestConfidenceBand(t *testing.T) {
	got := ConfidenceBand(100, 0.95)
	want := 1.959963984540054 / 10
	if !feq(got, want, 1e-9) {
		t.Fatalf("band = %v, want %v", got, want)
	}
	if !math.IsNaN(ConfidenceBand(0, 0.95)) {
		t.Fatal("n=0 should be NaN")
	}
}

func TestLjungBoxWhiteNoise(t *testing.T) {
	x := ar1(2000, 0, 7)
	res := LjungBox(x, 20, 0)
	if res.PValue < 0.01 {
		t.Fatalf("white noise rejected: p = %v", res.PValue)
	}
}

func TestLjungBoxAutocorrelated(t *testing.T) {
	x := ar1(2000, 0.8, 8)
	res := LjungBox(x, 20, 0)
	if res.PValue > 1e-6 {
		t.Fatalf("AR(1) not detected: p = %v", res.PValue)
	}
	if res.Stat <= 0 {
		t.Fatalf("Q = %v, want > 0", res.Stat)
	}
}

func TestLjungBoxDFAdjustment(t *testing.T) {
	x := ar1(500, 0.3, 9)
	res := LjungBox(x, 5, 5)
	if !math.IsNaN(res.PValue) {
		t.Fatal("df <= 0 should produce NaN p-value")
	}
}

func TestACFNegativeLagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ACF([]float64{1, 2}, -1)
}
