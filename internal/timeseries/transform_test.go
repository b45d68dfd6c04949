package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDiffFirstOrder(t *testing.T) {
	x := []float64{1, 4, 9, 16}
	d := Diff(x, 1)
	want := []float64{3, 5, 7}
	if len(d) != 3 {
		t.Fatalf("len = %d", len(d))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Diff = %v, want %v", d, want)
		}
	}
}

func TestDiffZeroOrderCopies(t *testing.T) {
	x := []float64{1, 2}
	d := Diff(x, 0)
	d[0] = 99
	if x[0] != 1 {
		t.Fatal("Diff(x,0) must not alias input")
	}
}

func TestDiffSecondOrder(t *testing.T) {
	// Quadratic becomes constant after two differences.
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i * i)
	}
	d := Diff(x, 2)
	for _, v := range d {
		if v != 2 {
			t.Fatalf("second difference of i² should be 2, got %v", d)
		}
	}
}

func TestDiffTooShort(t *testing.T) {
	if got := Diff([]float64{1}, 1); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
}

func TestSeasonalDiff(t *testing.T) {
	// Period-3 seasonal pattern + trend: seasonal diff removes the pattern.
	x := []float64{10, 20, 30, 11, 21, 31, 12, 22, 32}
	d := SeasonalDiff(x, 3, 1)
	if len(d) != 6 {
		t.Fatalf("len = %d", len(d))
	}
	for _, v := range d {
		if v != 1 {
			t.Fatalf("seasonal diff = %v, want all 1", d)
		}
	}
}

func TestDifferenceCombined(t *testing.T) {
	// Applying both operators shrinks the length by d + D*s.
	x := make([]float64, 60)
	for i := range x {
		x[i] = float64(i) + math.Sin(2*math.Pi*float64(i)/12)
	}
	w := Difference(x, 1, 1, 12)
	if len(w) != 60-1-12 {
		t.Fatalf("len = %d, want 47", len(w))
	}
}

// Property: IntegrateForecast inverts Difference exactly — if we difference
// a series, "forecast" its true future differenced values, and integrate,
// we recover the true future levels.
func TestIntegrateForecastInvertsDifference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(3)      // 0..2
		D := rng.Intn(2)      // 0..1
		s := 2 + rng.Intn(11) // 2..12
		n := 80 + rng.Intn(40)
		h := 1 + rng.Intn(20)
		x := make([]float64, n+h)
		for i := range x {
			x[i] = rng.NormFloat64()*3 + float64(i)*0.1 + 5*math.Sin(2*math.Pi*float64(i)/float64(s))
		}
		history := x[:n]
		futureTrue := x[n:]
		// Differenced whole series; its tail corresponds to the future.
		wAll := Difference(x, d, D, s)
		wHist := Difference(history, d, D, s)
		if len(wAll) <= len(wHist) {
			return true // degenerate
		}
		fc := wAll[len(wAll)-h:]
		rec := IntegrateForecast(history, fc, d, D, s)
		for i := range rec {
			if math.Abs(rec[i]-futureTrue[i]) > 1e-8*(1+math.Abs(futureTrue[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxCoxRoundTrip(t *testing.T) {
	x := []float64{0.5, 1, 2, 5, 10}
	for _, lam := range []float64{-0.5, 0, 0.5, 1, 2} {
		y, err := BoxCox(x, lam)
		if err != nil {
			t.Fatal(err)
		}
		back := InverseBoxCox(y, lam)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-10 {
				t.Fatalf("λ=%v round trip: %v -> %v", lam, x[i], back[i])
			}
		}
	}
}

func TestBoxCoxLambdaOneIsShift(t *testing.T) {
	x := []float64{1, 2, 3}
	y, err := BoxCox(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if y[i] != x[i]-1 {
			t.Fatalf("λ=1 should be x-1, got %v", y)
		}
	}
}

func TestBoxCoxRejectsNonPositive(t *testing.T) {
	if _, err := BoxCox([]float64{1, 0, 2}, 0.5); err == nil {
		t.Fatal("expected error for non-positive data")
	}
}

func TestBoxCoxShift(t *testing.T) {
	if BoxCoxShift([]float64{1, 2}) != 0 {
		t.Fatal("positive data needs no shift")
	}
	x := []float64{-3, 0, 5}
	c := BoxCoxShift(x)
	for _, v := range x {
		if v+c <= 0 {
			t.Fatalf("shift %v insufficient for %v", c, v)
		}
	}
}

func TestInverseBoxCoxClampsOutOfDomain(t *testing.T) {
	// λ=0.5 with very negative y gives λy+1 < 0; result clamps to 0.
	out := InverseBoxCox([]float64{-10}, 0.5)
	if out[0] != 0 {
		t.Fatalf("expected clamp to 0, got %v", out[0])
	}
}

func TestGuerreroLambdaLogSeries(t *testing.T) {
	// A multiplicative (log-normal-ish) seasonal series should pick a small λ.
	rng := rand.New(rand.NewSource(31))
	n := 600
	x := make([]float64, n)
	for i := range x {
		base := math.Exp(0.01*float64(i) + 0.5*math.Sin(2*math.Pi*float64(i)/24))
		x[i] = base * math.Exp(0.05*rng.NormFloat64())
	}
	lam := GuerreroLambda(x, 24)
	if lam > 0.5 {
		t.Fatalf("λ = %v, want near 0 for multiplicative data", lam)
	}
	// An additive series should pick λ near 1.
	y := make([]float64, n)
	for i := range y {
		y[i] = 100 + 5*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()
	}
	lam = GuerreroLambda(y, 24)
	if lam < 0.5 {
		t.Fatalf("λ = %v, want near 1 for additive data", lam)
	}
}

func TestGuerreroLambdaShortSeries(t *testing.T) {
	if lam := GuerreroLambda([]float64{1, 2, 3}, 24); lam != 1 {
		t.Fatalf("short series should default to 1, got %v", lam)
	}
}
