package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); !feq(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(x); !feq(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(x); !feq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) ||
		!math.IsNaN(Median(nil)) || !math.IsNaN(MAD(nil)) {
		t.Fatal("empty inputs should return NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of single value should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(x, c.q); !feq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(x, -0.1)) || !math.IsNaN(Quantile(x, 1.1)) {
		t.Fatal("out-of-range q should be NaN")
	}
	if got := Quantile([]float64{7}, 0.5); got != 7 {
		t.Fatalf("single-element quantile = %v", got)
	}
}

func TestMedianUnsortedInputUnchanged(t *testing.T) {
	x := []float64{5, 1, 3}
	if got := Median(x); got != 3 {
		t.Fatalf("Median = %v", got)
	}
	if x[0] != 5 || x[1] != 1 || x[2] != 3 {
		t.Fatal("Median mutated its input")
	}
}

func TestMADGaussianConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 20000
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 3.0
	}
	if got := MAD(x); math.Abs(got-3.0) > 0.12 {
		t.Fatalf("MAD = %v, want ~3.0", got)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(x, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		shift := rng.NormFloat64() * 100
		scale := 1 + rng.Float64()*5
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = scale*x[i] + shift
		}
		vx, vy := Variance(x), Variance(y)
		return feq(vy, scale*scale*vx, 1e-9*(1+vy))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
