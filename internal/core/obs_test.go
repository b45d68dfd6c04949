package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metricstore"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// TestEngineRunTraceAndMetrics is the PR's acceptance check in test
// form: a traced engine run must produce a span tree covering every
// Figure 4 stage with one fit span per candidate, and the
// models_fitted_total counter must equal the engine's reported
// candidate count.
func TestEngineRunTraceAndMetrics(t *testing.T) {
	o := obs.New(obs.Config{Trace: true, Metrics: true})
	e, err := NewEngine(Options{Technique: TechniqueHES, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), seasonalTrending(3))
	if err != nil {
		t.Fatal(err)
	}

	spans := o.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d root spans, want 1", len(spans))
	}
	root := spans[0]
	if root.Name() != "engine.run" {
		t.Fatalf("root span = %q", root.Name())
	}
	for _, stage := range []string{"fetch", "interpolate", "split", "analyse", "build-candidates", "fit-score", "champion", "forecast"} {
		if root.Find(stage) == nil {
			var tree strings.Builder
			root.WriteTree(&tree)
			t.Errorf("span tree missing Figure 4 stage %q:\n%s", stage, tree.String())
		}
	}
	fits := 0
	for _, c := range root.Find("fit-score").Children() {
		if c.Name() == "fit" {
			fits++
			if _, ok := c.Attr("candidate"); !ok {
				t.Error("fit span missing candidate attr")
			}
			if _, ok := c.Attr("family"); !ok {
				t.Error("fit span missing family attr")
			}
		}
	}
	if fits != res.ModelsEvaluated {
		t.Errorf("fit spans = %d, want one per candidate (%d)", fits, res.ModelsEvaluated)
	}
	if got := o.Registry().CounterValue("models_fitted_total"); got != int64(res.ModelsEvaluated) {
		t.Errorf("models_fitted_total = %d, want %d", got, res.ModelsEvaluated)
	}
	if got := o.Registry().CounterValue("champion_family_total"); got != 1 {
		t.Errorf("champion_family_total = %d, want 1", got)
	}
	if got := o.Registry().Histogram("fit_duration_seconds", obs.L("technique", "HES")).Count(); got != int64(res.ModelsEvaluated) {
		t.Errorf("fit_duration_seconds count = %d, want %d", got, res.ModelsEvaluated)
	}
}

// TestEngineStageErrorsNamed checks stage failures carry their stage
// name (the fleet-attribution satellite).
func TestEngineStageErrorsNamed(t *testing.T) {
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A half-missing series → interpolate refuses (too sparse).
	values := make([]float64, 1008)
	for i := range values {
		if i%2 == 0 {
			values[i] = math.NaN()
		} else {
			values[i] = 50
		}
	}
	ser := timeseries.New("holes", t0, timeseries.Hourly, values)
	_, err = e.Run(context.Background(), ser)
	if err == nil || !strings.HasPrefix(err.Error(), "interpolate:") {
		t.Errorf("sparse-series error not stage-wrapped: %v", err)
	}
}

// TestFleetRecordsElapsedAndFirstErr checks the fleet satellite: failed
// workloads are attributable (FirstErr + per-item wall time).
func TestFleetRecordsElapsedAndFirstErr(t *testing.T) {
	repo, from, to := fillRepo(t, 1008)
	// A hopeless workload: two samples only → split fails.
	repo.Put(metricstore.Sample{Target: "aaBroken", Metric: "cpu", At: from, Value: 1})
	repo.Put(metricstore.Sample{Target: "aaBroken", Metric: "cpu", At: from.Add(time.Hour), Value: 2})

	o := obs.New(obs.Config{Metrics: true})
	res, err := RunFleet(context.Background(), repo, from, to, FleetOptions{
		Engine: Options{Technique: TechniqueHES},
		Freq:   timeseries.Hourly,
		Obs:    o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Trained != 3 {
		t.Fatalf("outcome = trained %d / failed %d, want 3/1", res.Trained, res.Failed)
	}
	if res.FirstErr == nil || res.FirstErrKey != "aaBroken/cpu" {
		t.Fatalf("FirstErr = %v (key %q), want the broken workload", res.FirstErr, res.FirstErrKey)
	}
	for _, it := range res.Items {
		if it.Skipped {
			continue
		}
		if it.Elapsed <= 0 {
			t.Errorf("workload %s has no recorded wall time", it.Key)
		}
	}
	if got := o.Registry().CounterValue("fleet_workloads_run_total"); got != 3 {
		t.Errorf("fleet_workloads_run_total = %d, want 3", got)
	}
	if got := o.Registry().CounterValue("fleet_workloads_failed_total"); got != 1 {
		t.Errorf("fleet_workloads_failed_total = %d, want 1", got)
	}
}

// TestModelStoreWatchdogCounters checks the staleness watchdog reports
// through the observer.
func TestModelStoreWatchdogCounters(t *testing.T) {
	o := obs.New(obs.Config{Metrics: true})
	store := NewModelStore(StalePolicy{MaxAge: time.Hour, DegradeFactor: 1.5})
	store.SetObserver(o)
	now := t0
	store.SetClock(func() time.Time { return now })

	if _, usable := store.Get("k"); usable {
		t.Fatal("empty store returned usable")
	}
	e, err := NewEngine(Options{Technique: TechniqueHES})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), seasonalTrending(4))
	if err != nil {
		t.Fatal(err)
	}
	store.Put("k", res)
	if _, usable := store.Get("k"); !usable {
		t.Fatal("fresh model unusable")
	}
	now = now.Add(2 * time.Hour)
	if _, usable := store.Get("k"); usable {
		t.Fatal("aged model still usable")
	}
	// Degradation invalidates.
	store.Put("k", res)
	if _, err := store.CheckIn("k", res.TestScore.RMSE*10); err != nil {
		t.Fatal(err)
	}
	if _, usable := store.Get("k"); usable {
		t.Fatal("degraded model still usable")
	}

	reg := o.Registry()
	if got := reg.Counter("modelstore_lookups_total", obs.L("result", "miss")).Value(); got != 1 {
		t.Errorf("miss lookups = %d, want 1", got)
	}
	if got := reg.Counter("modelstore_lookups_total", obs.L("result", "hit")).Value(); got != 1 {
		t.Errorf("hit lookups = %d, want 1", got)
	}
	if got := reg.Counter("modelstore_lookups_total", obs.L("result", "stale")).Value(); got != 1 {
		t.Errorf("stale lookups = %d, want 1", got)
	}
	if got := reg.Counter("modelstore_lookups_total", obs.L("result", "invalidated")).Value(); got != 1 {
		t.Errorf("invalidated lookups = %d, want 1", got)
	}
	if got := reg.CounterValue("modelstore_invalidations_total"); got != 1 {
		t.Errorf("invalidations = %d, want 1", got)
	}
	if got := reg.CounterValue("modelstore_puts_total"); got != 2 {
		t.Errorf("puts = %d, want 2", got)
	}
}

// TestEngineNilObserver checks the engine is fully nil-safe — the
// library default must stay silent and work.
func TestEngineNilObserver(t *testing.T) {
	e, err := NewEngine(Options{Technique: TechniqueHES})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), seasonalTrending(5)); err != nil {
		t.Fatal(err)
	}
}
