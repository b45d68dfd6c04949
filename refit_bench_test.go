package repro_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/timeseries"
)

// refitSeries builds the deterministic 14-day hourly series the refit
// benchmarks share: daily seasonality, gentle trend, bounded pseudo-noise.
// No RNG, so cold/warm/advance measure the same optimisation landscape.
func refitSeries(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = 50 + 0.02*float64(i) +
			10*math.Sin(2*math.Pi*float64(i%24)/24) +
			1.5*math.Sin(float64(i)*1.7)
	}
	return y
}

func refitBenchSeries(b *testing.B) *timeseries.Series {
	b.Helper()
	return timeseries.New("bench/cpu", benchStart, timeseries.Hourly, refitSeries(336))
}

func refitBenchEngine(b *testing.B, warm *core.WarmStart) *core.Engine {
	b.Helper()
	eng, err := core.NewEngine(core.Options{
		Technique: core.TechniqueSARIMAX, MaxCandidates: 24, Warm: warm,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkAnalyze measures the engine's analysis stage alone (ADF,
// periodogram, shock detection, decomposition, correlograms) on the
// refit benchmarks' series.
func BenchmarkAnalyze(b *testing.B) {
	b.ReportAllocs()
	ser := refitBenchSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(ser, core.AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefitCold measures the seed behaviour: the full pruned grid,
// every candidate optimised from the cold simplex. This is the per-refit
// cost the incremental-refit tiers are gated against (BENCH_PR10.json).
func BenchmarkRefitCold(b *testing.B) {
	b.ReportAllocs()
	ser := refitBenchSeries(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refitBenchEngine(b, nil).Run(context.Background(), ser); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefitWarm measures a degradation/drift refit: the incumbent's
// parameter vector seeds the optimiser and prior scores shrink the grid
// to the top 3 plus one exploration candidate.
func BenchmarkRefitWarm(b *testing.B) {
	b.ReportAllocs()
	ser := refitBenchSeries(b)
	cold, err := refitBenchEngine(b, nil).Run(context.Background(), ser)
	if err != nil {
		b.Fatal(err)
	}
	warm := core.WarmFromResult(cold)
	if warm == nil {
		b.Fatal("cold run produced nothing to warm-start from")
	}
	warm.TopK = 3
	warm.Explore = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refitBenchEngine(b, warm).Run(context.Background(), ser); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefitAdvance measures the horizon-exhaustion path: fold the
// next 24 observations into the champion's filter state and regenerate
// the forecast — no optimiser, no grid.
func BenchmarkRefitAdvance(b *testing.B) {
	b.ReportAllocs()
	ser := refitBenchSeries(b)
	res, err := refitBenchEngine(b, nil).Run(context.Background(), ser)
	if err != nil {
		b.Fatal(err)
	}
	if res.Live == nil {
		b.Fatal("run carries no live model")
	}
	// Each iteration rolls a further day of the deterministic generator
	// into the same live model — exactly the serve loop's advance cadence.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := make([]float64, 24)
		off := 336 + i*24
		for j := range next {
			k := off + j
			next[j] = 50 + 0.02*float64(k) +
				10*math.Sin(2*math.Pi*float64(k%24)/24) +
				1.5*math.Sin(float64(k)*1.7)
		}
		r2, err := res.Advanced(next)
		if err != nil {
			b.Fatal(err)
		}
		res = r2
	}
}
