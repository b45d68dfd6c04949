package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-2.5758293035489004, 0.005},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !feq(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.975, 0.99, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !feq(got, p, 1e-10) {
			t.Errorf("round trip failed at p=%v: CDF(Q(p)) = %v", p, got)
		}
	}
	if NormalQuantile(0) != math.Inf(-1) || NormalQuantile(1) != math.Inf(1) {
		t.Fatal("boundary quantiles wrong")
	}
	if !math.IsNaN(NormalQuantile(-0.1)) || !math.IsNaN(NormalQuantile(1.5)) {
		t.Fatal("out of range should be NaN")
	}
}

func TestNormalQuantileKnown(t *testing.T) {
	if got := NormalQuantile(0.975); !feq(got, 1.959963984540054, 1e-9) {
		t.Fatalf("z(0.975) = %v", got)
	}
	if got := NormalQuantile(0.95); !feq(got, 1.6448536269514722, 1e-9) {
		t.Fatalf("z(0.95) = %v", got)
	}
}

func TestChiSquareCDF(t *testing.T) {
	// Reference values (R: pchisq(q, df)).
	cases := []struct {
		q, df, want float64
	}{
		{3.841459, 1, 0.95},
		{5.991465, 2, 0.95},
		{18.30704, 10, 0.95},
		{2, 2, 1 - math.Exp(-1)}, // chi2(2) is Exp(1/2)
		{0, 3, 0},
	}
	for _, c := range cases {
		if got := ChiSquareCDF(c.q, c.df); !feq(got, c.want, 1e-6) {
			t.Errorf("pchisq(%v, %v) = %v, want %v", c.q, c.df, got, c.want)
		}
	}
}

// Property: CDFs are monotone non-decreasing.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 10), math.Mod(b, 10)
		lo, hi := math.Min(a, b), math.Max(a, b)
		if NormalCDF(lo) > NormalCDF(hi)+1e-15 {
			return false
		}
		la, lb := math.Abs(lo), math.Abs(hi)
		if la > lb {
			la, lb = lb, la
		}
		return ChiSquareCDF(la, 4) <= ChiSquareCDF(lb, 4)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
