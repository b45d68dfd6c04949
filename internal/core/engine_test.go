package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// seasonalTrending builds a 1008-point hourly series with daily season,
// trend, and midnight shocks — the paper's OLTP shape in miniature.
func seasonalTrending(seed int64) *timeseries.Series {
	var shocks []int
	for d := 0; d < 42; d++ {
		shocks = append(shocks, d*24)
	}
	y := workload.Synthetic(workload.SyntheticOpts{
		N: 1008, Level: 100, Trend: 0.05,
		Periods: []int{24}, Amps: []float64{15},
		Noise: 1.0, ShockAt: shocks, ShockAmp: 40, Seed: seed,
	})
	return timeseries.New("oltp-mini", t0, timeseries.Hourly, y)
}

func TestEngineSARIMAXEndToEnd(t *testing.T) {
	e, err := NewEngine(Options{Technique: TechniqueSARIMAX, MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), seasonalTrending(1))
	if err != nil {
		t.Fatal(err)
	}
	// Table 1: 1008 obs → 984 train + 24 test.
	if res.TrainLen != 984 || res.TestLen != 24 {
		t.Fatalf("split = %d/%d, want 984/24", res.TrainLen, res.TestLen)
	}
	if res.Champion.Err != nil {
		t.Fatalf("champion failed: %v", res.Champion.Err)
	}
	if math.IsNaN(res.TestScore.RMSE) || res.TestScore.RMSE <= 0 {
		t.Fatalf("RMSE = %v", res.TestScore.RMSE)
	}
	// Forecast must exist, be 24 long, with ordered error bars.
	if res.Forecast == nil || len(res.Forecast.Mean) != 24 {
		t.Fatal("production forecast missing")
	}
	for k := range res.Forecast.Mean {
		if !(res.Forecast.Lower[k] <= res.Forecast.Mean[k] && res.Forecast.Mean[k] <= res.Forecast.Upper[k]) {
			t.Fatal("error bars out of order")
		}
	}
	// Champion should beat a naive flat forecast.
	naive := make([]float64, 24)
	last := res.TestActual[0]
	for k := range naive {
		naive[k] = last
	}
	naiveRMSE := metrics.RMSE(res.TestActual, naive)
	if res.TestScore.RMSE > naiveRMSE {
		t.Fatalf("champion (%v) worse than naive (%v)", res.TestScore.RMSE, naiveRMSE)
	}
	// Candidates ranked best-first.
	for i := 1; i < len(res.Candidates); i++ {
		a, b := res.Candidates[i-1], res.Candidates[i]
		if a.Err == nil && b.Err == nil && a.Score.RMSE > b.Score.RMSE+1e-9 {
			t.Fatal("candidates not sorted by RMSE")
		}
	}
}

func TestEngineHESEndToEnd(t *testing.T) {
	e, err := NewEngine(Options{Technique: TechniqueHES})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), seasonalTrending(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Champion.Label, "HES") {
		t.Fatalf("champion = %q, want an HES model", res.Champion.Label)
	}
	// Strong seasonality: the champion should be a seasonal HES variant.
	if !strings.Contains(res.Champion.Label, "Holt-Winters") {
		t.Logf("note: champion is %q (seasonal data usually selects Holt-Winters)", res.Champion.Label)
	}
	if len(res.Forecast.Mean) != 24 {
		t.Fatal("wrong horizon")
	}
}

func TestEngineARIMABaseline(t *testing.T) {
	e, err := NewEngine(Options{Technique: TechniqueARIMA, MaxCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), seasonalTrending(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if strings.Contains(c.Label, "(") && strings.Contains(c.Label, ",1,1,24") {
			t.Fatalf("ARIMA branch produced seasonal model: %q", c.Label)
		}
	}
}

// TestSeasonalBeatsPlainARIMA pins the paper's central empirical claim:
// on seasonal data the seasonal family wins (Table 2: "there is a
// significant jump in accuracy when the seasonal component … is taken
// into consideration").
func TestSeasonalBeatsPlainARIMA(t *testing.T) {
	s := seasonalTrending(4)
	sx, err := NewEngine(Options{Technique: TechniqueSARIMAX, MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := NewEngine(Options{Technique: TechniqueARIMA, MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	resSX, err := sx.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	resAR, err := ar.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if resSX.TestScore.RMSE >= resAR.TestScore.RMSE {
		t.Fatalf("SARIMAX (%.3f) should beat ARIMA (%.3f) on seasonal data",
			resSX.TestScore.RMSE, resAR.TestScore.RMSE)
	}
}

// TestExogenousImprovesShockForecast pins the second claim: modelling
// known shocks as exogenous variables improves accuracy on shocked data.
func TestExogenousImprovesShockForecast(t *testing.T) {
	s := seasonalTrending(5)
	with, err := NewEngine(Options{Technique: TechniqueSARIMAX, MaxCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewEngine(Options{Technique: TechniqueSARIMAX, MaxCandidates: 6, DisableExog: true})
	if err != nil {
		t.Fatal(err)
	}
	resWith, err := with.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	resWithout, err := without.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	// The exog run must consider exog candidates and not be (much) worse.
	hasExog := false
	for _, c := range resWith.Candidates {
		if strings.Contains(c.Label, "exog") {
			hasExog = true
		}
	}
	if !hasExog {
		t.Fatal("no exogenous candidates were evaluated")
	}
	if resWith.TestScore.RMSE > resWithout.TestScore.RMSE*1.05 {
		t.Fatalf("exog run (%.3f) should not lose to no-exog (%.3f)",
			resWith.TestScore.RMSE, resWithout.TestScore.RMSE)
	}
}

func TestEngineInterpolatesGaps(t *testing.T) {
	s := seasonalTrending(6)
	// Punch holes.
	for _, i := range []int{50, 51, 52, 300, 700} {
		s.Values[i] = math.NaN()
	}
	e, err := NewEngine(Options{Technique: TechniqueHES})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), s); err != nil {
		t.Fatalf("engine should repair gaps: %v", err)
	}
	// Original series untouched (engine clones).
	if !math.IsNaN(s.Values[50]) {
		t.Fatal("engine mutated the caller's series")
	}
}

func TestEngineShortSeriesFails(t *testing.T) {
	e, _ := NewEngine(Options{Technique: TechniqueHES})
	short := timeseries.New("s", t0, timeseries.Hourly, make([]float64, 10))
	if _, err := e.Run(context.Background(), short); err == nil {
		t.Fatal("short series should fail")
	}
}

func TestEngineOptionsValidation(t *testing.T) {
	if _, err := NewEngine(Options{Level: 2}); err == nil {
		t.Fatal("bad level should fail")
	}
	if _, err := NewEngine(Options{Workers: -1}); err == nil {
		t.Fatal("negative workers should fail")
	}
}

func TestEngineHorizonOverride(t *testing.T) {
	e, err := NewEngine(Options{Technique: TechniqueHES, Horizon: 48})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), seasonalTrending(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forecast.Mean) != 48 {
		t.Fatalf("horizon = %d, want 48", len(res.Forecast.Mean))
	}
	// Prediction timestamps continue from the series end.
	if !res.Forecast.TimeAt(0).Equal(t0.Add(1008 * time.Hour)) {
		t.Fatalf("forecast start = %v", res.Forecast.TimeAt(0))
	}
}

func TestEngineParallelMatchesSerial(t *testing.T) {
	s := seasonalTrending(8)
	serial, err := NewEngine(Options{Technique: TechniqueSARIMAX, Workers: 1, MaxCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewEngine(Options{Technique: TechniqueSARIMAX, Workers: 8, MaxCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := serial.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := parallel.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Champion.Label != r2.Champion.Label {
		t.Fatalf("parallelism changed the champion: %q vs %q", r1.Champion.Label, r2.Champion.Label)
	}
	if math.Abs(r1.TestScore.RMSE-r2.TestScore.RMSE) > 1e-9 {
		t.Fatalf("parallelism changed the score: %v vs %v", r1.TestScore.RMSE, r2.TestScore.RMSE)
	}
}

func TestReportContents(t *testing.T) {
	e, err := NewEngine(Options{Technique: TechniqueSARIMAX, MaxCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), seasonalTrending(14))
	if err != nil {
		t.Fatal(err)
	}
	// A SARIMAX champion carries residual diagnostics, computed when the
	// report asks for them.
	if res.Diagnose() == nil {
		t.Fatal("SARIMAX champion has no diagnostics")
	}
	rep := res.Report()
	for _, want := range []string{
		"Capacity forecast", "champion", "accuracy", "RMSE",
		"seasonality", "forecast", "984 train + 24 test", "diagnostics",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(res.String(), res.Champion.Label) {
		t.Fatal("String() missing champion")
	}
}

func TestEngineTBATSBranch(t *testing.T) {
	// A shorter multi-seasonal series exercises the TBATS branch.
	y := workload.Synthetic(workload.SyntheticOpts{
		N: 504, Level: 100, Periods: []int{24}, Amps: []float64{12},
		Noise: 1, Seed: 15,
	})
	s := timeseries.New("tbats-branch", t0, timeseries.Hourly, y)
	e, err := NewEngine(Options{Technique: TechniqueTBATS})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Champion.Label, "TBATS") {
		t.Fatalf("champion = %q, want a TBATS config", res.Champion.Label)
	}
	if len(res.Forecast.Mean) != 24 {
		t.Fatalf("horizon = %d", len(res.Forecast.Mean))
	}
	// The forecast should track the seasonal truth reasonably.
	if res.TestScore.MAPA < 80 {
		t.Fatalf("TBATS MAPA = %v, want > 80", res.TestScore.MAPA)
	}
	if res.Diagnose() != nil {
		t.Fatal("TBATS champion reported ARIMA diagnostics")
	}
	if core := TechniqueTBATS.String(); core != "TBATS" {
		t.Fatalf("String = %q", core)
	}
}
