package repro_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/metrics"
	"repro/internal/metricstore"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// TestFullPipelineOLTP walks the complete §5.1 path in one test:
// simulate a clustered database → poll with a faulty agent → store in
// the central repository → aggregate hourly → run the learning engine →
// store the champion → check the model in with live data → render the
// report. Every stage must hand valid state to the next.
func TestFullPipelineOLTP(t *testing.T) {
	cfg := workload.OLTPConfig(7)
	cluster, err := dbsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := metricstore.New()
	ag, err := agent.New(agent.Config{
		Interval:    15 * time.Minute,
		FailureRate: 0.02,
		Seed:        8,
	}, cluster, store)
	if err != nil {
		t.Fatal(err)
	}
	end := cfg.Start.Add(42 * 24 * time.Hour)
	delivered, missed, err := ag.Collect(cfg.Start, end)
	if err != nil {
		t.Fatal(err)
	}
	if delivered == 0 || missed == 0 {
		t.Fatalf("agent stats implausible: delivered=%d missed=%d", delivered, missed)
	}

	key := metricstore.Key{Target: "cdbm011", Metric: "logical_iops"}
	// Gaps are visible at the raw 15-minute granularity; the hourly
	// aggregation absorbs them unless all four polls of a bucket fail.
	raw, err := store.Series(key, timeseries.Minute15, cfg.Start, end)
	if err != nil {
		t.Fatal(err)
	}
	if !raw.HasMissing() {
		t.Fatal("fault injection should have created 15-minute gaps")
	}
	ser, err := store.Series(key, timeseries.Hourly, cfg.Start, end)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := core.NewEngine(core.Options{
		Technique:     core.TechniqueSARIMAX,
		MaxCandidates: 8,
		// The operator knows the backup schedule: every 6 hours.
		KnownShockPhases: []int{0, 6, 12, 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), ser)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestScore.MAPA < 80 {
		t.Fatalf("end-to-end MAPA = %.1f, want > 80", res.TestScore.MAPA)
	}

	// Champion goes to the model store and survives a good check-in:
	// live actuals that track its first four forecast steps.
	models := core.NewModelStore(core.StalePolicy{})
	models.Put(key.String(), res)
	actual := res.Forecast.Mean[:4]
	usable, err := models.CheckIn(key.String(), metrics.RMSE(actual, res.Forecast.Mean[:4]))
	if err != nil || !usable {
		t.Fatalf("check-in failed: usable=%v err=%v", usable, err)
	}

	// Report renders with the load-bearing facts.
	rep := res.Report()
	for _, want := range []string{"champion", "RMSE", "shocks"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestDailyGranularityPath exercises the Table 1 daily policy: hourly
// collection aggregated to daily by the repository, 7-day-ahead forecast.
func TestDailyGranularityPath(t *testing.T) {
	// 120 days of hourly data with a weekly cycle, aggregated to daily.
	y := workload.Synthetic(workload.SyntheticOpts{
		N: 120 * 24, Level: 50, Trend: 0.002,
		Periods: []int{24, 168}, Amps: []float64{8, 5},
		Noise: 1, Seed: 31,
	})
	start := time.Date(2026, 2, 2, 0, 0, 0, 0, time.UTC)
	store := metricstore.New()
	batch := make([]metricstore.Sample, len(y))
	for i, v := range y {
		batch[i] = metricstore.Sample{Target: "db", Metric: "cpu", At: start.Add(time.Duration(i) * time.Hour), Value: v}
	}
	store.PutBatch(batch)
	daily, err := store.Series(metricstore.Key{Target: "db", Metric: "cpu"}, timeseries.Daily,
		start, start.Add(time.Duration(len(y))*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if daily.Len() != 120 {
		t.Fatalf("daily length = %d", daily.Len())
	}

	eng, err := core.NewEngine(core.Options{Technique: core.TechniqueSARIMAX, MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), daily)
	if err != nil {
		t.Fatal(err)
	}
	// Table 1 daily: 90 obs window → 83 train + 7 test, horizon 7.
	if res.TrainLen != 83 || res.TestLen != 7 {
		t.Fatalf("daily split = %d/%d, want 83/7", res.TrainLen, res.TestLen)
	}
	if len(res.Forecast.Mean) != 7 {
		t.Fatalf("daily horizon = %d, want 7", len(res.Forecast.Mean))
	}
	if res.Forecast.TimeAt(0).Sub(daily.End()) != 0 {
		t.Fatal("forecast does not start at series end")
	}
}

// TestRepositoryPersistenceRoundTrip checks the save/load path an
// operational deployment would use between agent runs.
func TestRepositoryPersistenceRoundTrip(t *testing.T) {
	cfg := workload.OLAPConfig(9)
	cluster, err := dbsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := metricstore.New()
	ag, err := agent.New(agent.Config{Interval: 15 * time.Minute}, cluster, store)
	if err != nil {
		t.Fatal(err)
	}
	end := cfg.Start.Add(3 * 24 * time.Hour)
	if _, _, err := ag.Collect(cfg.Start, end); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := metricstore.New()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	key := metricstore.Key{Target: "cdbm012", Metric: "cpu"}
	a, err := store.Series(key, timeseries.Hourly, cfg.Start, end)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Series(key, timeseries.Hourly, cfg.Start, end)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		av, bv := a.Values[i], b.Values[i]
		if math.IsNaN(av) != math.IsNaN(bv) || (!math.IsNaN(av) && av != bv) {
			t.Fatalf("restored series differs at %d: %v vs %v", i, av, bv)
		}
	}
}

// TestBacktestOnSimulatedWorkload validates the champion's hold-out
// quality on the realistic substrate, not just synthetics.
func TestBacktestOnSimulatedWorkload(t *testing.T) {
	cfg := workload.OLAPConfig(10)
	cluster, err := dbsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := metricstore.New()
	ag, err := agent.New(agent.Config{Interval: 15 * time.Minute}, cluster, store)
	if err != nil {
		t.Fatal(err)
	}
	end := cfg.Start.Add(20 * 24 * time.Hour)
	if _, _, err := ag.Collect(cfg.Start, end); err != nil {
		t.Fatal(err)
	}
	ser, err := store.Series(metricstore.Key{Target: "cdbm012", Metric: "cpu"},
		timeseries.Hourly, cfg.Start, end)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Options{Technique: core.TechniqueHES})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), ser)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestScore.MAPA < 75 {
		t.Fatalf("hold-out MAPA = %.1f, want > 75", res.TestScore.MAPA)
	}
}
