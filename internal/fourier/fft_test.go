package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaivePow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(n, int64(n))
		if !complexClose(FFT(x), naiveDFT(x), 1e-9*float64(n)) {
			t.Fatalf("FFT mismatch at n=%d", n)
		}
	}
}

func TestFFTMatchesNaiveArbitraryLength(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12, 100, 720, 1008} {
		x := randComplex(n, int64(n)*7)
		if !complexClose(FFT(x), naiveDFT(x), 1e-8*float64(n)) {
			t.Fatalf("Bluestein FFT mismatch at n=%d", n)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if FFT(nil) != nil {
		t.Fatal("FFT(nil) should be nil")
	}
	out := FFT([]complex128{5})
	if len(out) != 1 || out[0] != 5 {
		t.Fatalf("FFT of singleton = %v", out)
	}
}

// Property: Parseval's theorem — Σ|x|² = (1/n)Σ|X|².
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		x := randComplex(n, seed)
		spec := FFT(x)
		var lhs, rhs float64
		for i := range x {
			lhs += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			rhs += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		}
		rhs /= float64(n)
		return math.Abs(lhs-rhs) < 1e-7*(1+lhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity — FFT(a·x + y) = a·FFT(x) + FFT(y).
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		x := randComplex(n, seed)
		y := randComplex(n, seed+1)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + y[i]
		}
		fx, fy, fm := FFT(x), FFT(y), FFT(mix)
		for i := range fm {
			if cmplx.Abs(fm[i]-(a*fx[i]+fy[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodogramPureSine(t *testing.T) {
	n := 240
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	power, period := Periodogram(x)
	// Peak should be at period 24 (k = n/24 = 10).
	best := 1
	for k := 2; k < len(power); k++ {
		if power[k] > power[best] {
			best = k
		}
	}
	if period[best] != 24 {
		t.Fatalf("peak at period %v, want 24", period[best])
	}
}

func TestPeriodogramShortInput(t *testing.T) {
	p, _ := Periodogram([]float64{1, 2, 3})
	if p != nil {
		t.Fatal("short input should return nil")
	}
}

func TestDetectSeasonalitySingle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 720
	x := make([]float64, n)
	for i := range x {
		x[i] = 10*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()
	}
	cands := DetectSeasonality(x, 0.02, 3)
	if len(cands) == 0 || cands[0].Period != 24 {
		t.Fatalf("candidates = %+v, want period 24 first", cands)
	}
}

func TestDetectSeasonalityMultiple(t *testing.T) {
	// The paper's OLTP case: daily (24) and weekly (168) cycles in hourly data.
	rng := rand.New(rand.NewSource(42))
	n := 1008
	x := make([]float64, n)
	for i := range x {
		x[i] = 10*math.Sin(2*math.Pi*float64(i)/24) +
			6*math.Sin(2*math.Pi*float64(i)/168) +
			rng.NormFloat64()
	}
	cands := DetectSeasonality(x, 0.01, 4)
	have := map[int]bool{}
	for _, c := range cands {
		have[c.Period] = true
	}
	if !have[24] || !have[168] {
		t.Fatalf("candidates = %+v, want both 24 and 168", cands)
	}
}

func TestDetectSeasonalityWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := make([]float64, 600)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	cands := DetectSeasonality(x, 0.05, 3)
	if len(cands) != 0 {
		t.Fatalf("white noise produced candidates: %+v", cands)
	}
}

func TestDetectSeasonalityConstant(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 42
	}
	if got := DetectSeasonality(x, 0.01, 3); got != nil {
		t.Fatalf("constant series produced candidates: %+v", got)
	}
}

func TestTermsShapeAndValues(t *testing.T) {
	cols, err := Terms(48, 0, []int{24}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 { // 2 harmonics × (sin, cos)
		t.Fatalf("got %d columns, want 4", len(cols))
	}
	// First column: sin(2πt/24); at t=6 it is sin(π/2)=1.
	if math.Abs(cols[0][6]-1) > 1e-12 {
		t.Fatalf("sin column wrong: %v", cols[0][6])
	}
	// Second column: cos(2πt/24); at t=0 it is 1.
	if math.Abs(cols[1][0]-1) > 1e-12 {
		t.Fatalf("cos column wrong: %v", cols[1][0])
	}
}

func TestTermsOffsetContinuity(t *testing.T) {
	// Terms for [0,n) and a second batch at offset n must be continuous —
	// this is how forecast-horizon regressors are generated.
	colsA, err := Terms(48, 0, []int{24}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	colsB, err := Terms(24, 48, []int{24}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// sin at t=48 equals sin at t=0 for period 24 (48 is a full cycle).
	if math.Abs(colsB[0][0]-colsA[0][0]) > 1e-12 {
		t.Fatal("offset terms not continuous")
	}
}

func TestTermsValidation(t *testing.T) {
	if _, err := Terms(10, 0, []int{24}, []int{1, 2}); err == nil {
		t.Fatal("mismatched lengths should fail")
	}
	if _, err := Terms(10, 0, []int{1}, []int{1}); err == nil {
		t.Fatal("period < 2 should fail")
	}
	if _, err := Terms(10, 0, []int{4}, []int{3}); err == nil {
		t.Fatal("2K > P should fail")
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randComplex(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFT1008Bluestein(b *testing.B) {
	x := randComplex(1008, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
