package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: interpolation is idempotent and never changes known values.
func TestInterpolateIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		vals := make([]float64, n)
		known := make(map[int]float64)
		anyKnown := false
		for i := range vals {
			if rng.Float64() < 0.3 {
				vals[i] = math.NaN()
			} else {
				vals[i] = rng.NormFloat64() * 10
				known[i] = vals[i]
				anyKnown = true
			}
		}
		if !anyKnown {
			return true
		}
		s := New("x", t0, Hourly, vals)
		if _, err := s.Interpolate(); err != nil {
			return false
		}
		// Known values untouched; no NaN remains.
		for i, v := range known {
			if s.Values[i] != v {
				return false
			}
		}
		if s.HasMissing() {
			return false
		}
		// Idempotent: second pass fills nothing.
		filled, err := s.Interpolate()
		return err == nil && filled == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: interpolated interior values lie within the bracketing known
// values (linearity implies betweenness).
func TestInterpolateBetweennessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 5
		}
		// Punch one interior gap of random width.
		lo := 1 + rng.Intn(10)
		hi := lo + 1 + rng.Intn(5)
		if hi >= n-1 {
			hi = n - 2
		}
		for i := lo; i <= hi; i++ {
			vals[i] = math.NaN()
		}
		left, right := vals[lo-1], vals[hi+1]
		s := New("x", t0, Hourly, vals)
		if _, err := s.Interpolate(); err != nil {
			return false
		}
		mn, mx := math.Min(left, right), math.Max(left, right)
		for i := lo; i <= hi; i++ {
			if s.Values[i] < mn-1e-12 || s.Values[i] > mx+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Diff then cumulative-sum reconstruction recovers the series.
func TestDiffInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		d := Diff(x, 1)
		rec := make([]float64, n)
		rec[0] = x[0]
		for i := 1; i < n; i++ {
			rec[i] = rec[i-1] + d[i-1]
		}
		for i := range x {
			if math.Abs(rec[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
