package decompose

import (
	"math"
	"math/rand"
	"testing"
)

// synth builds trend + seasonal + noise.
func synth(n, period int, trendSlope, seasonAmp, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 50 + trendSlope*float64(i) +
			seasonAmp*math.Sin(2*math.Pi*float64(i)/float64(period)) +
			noise*rng.NormFloat64()
	}
	return x
}

func TestClassicalAdditiveRecoversComponents(t *testing.T) {
	n, period := 480, 24
	x := synth(n, period, 0.05, 10, 0.5, 1)
	res, err := Classical(x, period, Additive)
	if err != nil {
		t.Fatal(err)
	}
	// Seasonal indices should match the sine within noise.
	for p := 0; p < period; p++ {
		want := 10 * math.Sin(2*math.Pi*float64(p)/float64(period))
		if math.Abs(res.SeasonalIndices[p]-want) > 1.0 {
			t.Fatalf("seasonal index[%d] = %v, want ~%v", p, res.SeasonalIndices[p], want)
		}
	}
	// Trend in the interior should be close to 50 + 0.05 i.
	mid := n / 2
	want := 50 + 0.05*float64(mid)
	if math.Abs(res.Trend[mid]-want) > 1.0 {
		t.Fatalf("trend[%d] = %v, want ~%v", mid, res.Trend[mid], want)
	}
	// Additive indices sum to ~0.
	var sum float64
	for _, v := range res.SeasonalIndices {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("indices sum = %v, want 0", sum)
	}
}

func TestClassicalTrendEdgesNaN(t *testing.T) {
	x := synth(100, 12, 0, 5, 0.1, 2)
	res, err := Classical(x, 12, Additive)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Trend[0]) || !math.IsNaN(res.Trend[99]) {
		t.Fatal("trend edges should be NaN")
	}
	if math.IsNaN(res.Trend[50]) {
		t.Fatal("interior trend should be defined")
	}
}

func TestClassicalOddPeriod(t *testing.T) {
	x := synth(105, 7, 0.1, 3, 0.1, 3)
	res, err := Classical(x, 7, Additive)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SeasonalIndices) != 7 {
		t.Fatalf("indices len = %d", len(res.SeasonalIndices))
	}
}

func TestClassicalMultiplicative(t *testing.T) {
	n, period := 480, 24
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, n)
	for i := range x {
		base := 100 + 0.1*float64(i)
		season := 1 + 0.3*math.Sin(2*math.Pi*float64(i)/24)
		x[i] = base * season * (1 + 0.01*rng.NormFloat64())
	}
	res, err := Classical(x, period, Multiplicative)
	if err != nil {
		t.Fatal(err)
	}
	// Multiplicative indices average to ~1.
	var mean float64
	for _, v := range res.SeasonalIndices {
		mean += v
	}
	mean /= float64(period)
	if math.Abs(mean-1) > 1e-9 {
		t.Fatalf("index mean = %v, want 1", mean)
	}
	// Peak index should be ~1.3.
	maxIdx := 0.0
	for _, v := range res.SeasonalIndices {
		if v > maxIdx {
			maxIdx = v
		}
	}
	if math.Abs(maxIdx-1.3) > 0.05 {
		t.Fatalf("peak index = %v, want ~1.3", maxIdx)
	}
}

func TestClassicalValidation(t *testing.T) {
	if _, err := Classical([]float64{1, 2, 3}, 1, Additive); err == nil {
		t.Fatal("period < 2 should fail")
	}
	if _, err := Classical([]float64{1, 2, 3}, 24, Additive); err == nil {
		t.Fatal("too-short series should fail")
	}
	if _, err := Classical([]float64{1, -1, 1, -1, 1, -1, 1, -1}, 2, Multiplicative); err == nil {
		t.Fatal("non-positive data should fail multiplicative")
	}
}

func TestSeasonalStrength(t *testing.T) {
	// Strongly seasonal series.
	strong := synth(480, 24, 0, 20, 0.5, 5)
	res, err := Classical(strong, 24, Additive)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.SeasonalStrength(); s < 0.9 {
		t.Fatalf("strength = %v, want > 0.9", s)
	}
	// Pure noise.
	noise := synth(480, 24, 0, 0, 5, 6)
	res, err = Classical(noise, 24, Additive)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.SeasonalStrength(); s > 0.3 {
		t.Fatalf("noise strength = %v, want < 0.3", s)
	}
}

func TestReconstructionIdentity(t *testing.T) {
	// trend + seasonal + residual must reproduce x where defined.
	x := synth(200, 12, 0.2, 4, 1, 9)
	res, err := Classical(x, 12, Additive)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.IsNaN(res.Residual[i]) {
			continue
		}
		sum := res.Trend[i] + res.Seasonal[i] + res.Residual[i]
		if math.Abs(sum-x[i]) > 1e-9 {
			t.Fatalf("reconstruction mismatch at %d: %v vs %v", i, sum, x[i])
		}
	}
}
