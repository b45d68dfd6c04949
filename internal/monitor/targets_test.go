package monitor

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/obs"
)

func TestTargetsEndpoint(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := t0
	store := core.NewModelStore(core.StalePolicy{MaxAge: 48 * time.Hour})
	store.SetClock(func() time.Time { return now })
	store.Put("db1/cpu", storedResult(t0, 50, 2))

	refitted := 0
	m, err := New(Config{
		Store: store,
		Refit: func(ctx context.Context, key string, warm bool) (*core.Result, error) {
			refitted++
			if obs.SpanFromContext(ctx).Context().IsZero() {
				t.Error("refit ctx carries no trace")
			}
			return storedResult(now, 50, 2), nil
		},
		Inventory: func() []string { return append([]string{"db2/io"}, SelfKeys("")...) },
		Obs:       obs.New(obs.Config{Trace: true, Metrics: true}),
	})
	if err != nil {
		t.Fatal(err)
	}

	byKey := func() map[string]TargetStatus {
		out := make(map[string]TargetStatus)
		for _, ts := range m.TargetsFor("") {
			out[ts.Key] = ts
		}
		return out
	}

	got := byKey()
	if len(got) != 6 {
		t.Fatalf("targets = %d rows, want 6 (1 trained + 1 inventoried + 4 self)", len(got))
	}
	if got["db1/cpu"].State != "ok" || got["db1/cpu"].HorizonSteps != 24 {
		t.Fatalf("db1/cpu = %+v", got["db1/cpu"])
	}
	if got["db2/io"].State != "untrained" {
		t.Fatalf("db2/io state = %q, want untrained", got["db2/io"].State)
	}
	if got[DefaultSelfTarget+"/heap_mb"].State != "untrained" {
		t.Fatal("self target not inventoried")
	}

	// An actual past the horizon triggers a traced refit whose record
	// lands on the endpoint.
	now = t0.Add(30 * time.Hour)
	m.ObserveActual(context.Background(), "db1/cpu", now, 50)
	if refitted != 1 {
		t.Fatalf("refits = %d, want 1", refitted)
	}
	ts := byKey()["db1/cpu"]
	if ts.LastRefit == nil {
		t.Fatal("no refit record on target")
	}
	if ts.LastRefit.Reason != "horizon" || ts.LastRefit.TraceID == "" {
		t.Fatalf("refit record = %+v", *ts.LastRefit)
	}
	if !ts.LastRefit.At.Equal(now) {
		t.Fatalf("refit stamped %v, want store clock %v", ts.LastRefit.At, now)
	}

	// Aging past MaxAge flips the state without touching lookup counters.
	now = now.Add(72 * time.Hour)
	if st := byKey()["db1/cpu"].State; st != "stale" {
		t.Fatalf("aged state = %q, want stale", st)
	}

	// The handler serves the same rows as JSON.
	rr := httptest.NewRecorder()
	TargetsHandler(m).ServeHTTP(rr, httptest.NewRequest("GET", TargetsPath, nil))
	var rows []TargetStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &rows); err != nil {
		t.Fatalf("targets payload not JSON: %v\n%s", err, rr.Body.String())
	}
	if len(rows) != 6 {
		t.Fatalf("handler rows = %d, want 6", len(rows))
	}
}

// TestTargetsKeyFilterAndHealthFields covers the ?key= filter and the
// calibration/drift summary merged into each targets row.
func TestTargetsKeyFilterAndHealthFields(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	now := t0
	store := core.NewModelStore(core.StalePolicy{MaxAge: 48 * time.Hour, DegradeFactor: 2})
	store.SetClock(func() time.Time { return now })
	store.Put("db1/cpu", storedResultWithBand(t0, 100, 5, 5, 48))
	store.Put("db2/io", storedResultWithBand(t0, 300, 10, 8, 48))
	m, err := New(Config{Store: store, Window: 24, MinPoints: 3,
		Obs: obs.New(obs.Config{Metrics: true})})
	if err != nil {
		t.Fatal(err)
	}

	// Score a few in-band actuals so db1/cpu carries calibration state.
	for i := 0; i < 12; i++ {
		m.ObserveActual(context.Background(), "db1/cpu", now, 101)
		now = now.Add(time.Hour)
	}

	rows := m.TargetsFor("db1/cpu")
	if len(rows) != 1 || rows[0].Key != "db1/cpu" {
		t.Fatalf("filtered rows = %+v, want exactly db1/cpu", rows)
	}
	ts := rows[0]
	if ts.Coverage != 1 || ts.NominalLevel != 0.95 || ts.CalibrationPoints != 12 {
		t.Fatalf("calibration summary = cov %v level %v points %d", ts.Coverage, ts.NominalLevel, ts.CalibrationPoints)
	}
	if ts.Health <= 0 || ts.Health > 1 {
		t.Fatalf("health = %v, want in (0, 1]", ts.Health)
	}
	if ts.DriftState != "watching" || ts.DriftAlarms != 0 {
		t.Fatalf("drift summary = %q/%d, want watching/0", ts.DriftState, ts.DriftAlarms)
	}

	// The unscored target has zero-valued health fields but still lists.
	if rows = m.TargetsFor("db2/io"); len(rows) != 1 || rows[0].CalibrationPoints != 0 {
		t.Fatalf("db2/io rows = %+v", rows)
	}
	// Unknown keys return an empty (not nil) slice — "[]" on the wire.
	if rows = m.TargetsFor("no/such"); rows == nil || len(rows) != 0 {
		t.Fatalf("unknown-key rows = %#v, want empty slice", rows)
	}

	// The handler honours ?key=.
	rr := httptest.NewRecorder()
	TargetsHandler(m).ServeHTTP(rr, httptest.NewRequest("GET", TargetsPath+"?key=db1/cpu", nil))
	var parsed []TargetStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &parsed); err != nil {
		t.Fatalf("filtered payload not JSON: %v", err)
	}
	if len(parsed) != 1 || parsed[0].Key != "db1/cpu" {
		t.Fatalf("handler filtered rows = %+v", parsed)
	}
}

func TestSelfScraperRates(t *testing.T) {
	o := obs.New(obs.Config{Metrics: true})
	repo := metricstore.New()
	s := NewSelfScraper(repo, o, "")
	if s.Target() != DefaultSelfTarget {
		t.Fatalf("target = %q", s.Target())
	}

	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	first := s.Sample(t0)
	if len(first) != 4 {
		t.Fatalf("scrape wrote %d samples, want 4", len(first))
	}
	vals := func(batch []metricstore.Sample) map[string]float64 {
		out := make(map[string]float64)
		for _, smp := range batch {
			if smp.Target != DefaultSelfTarget {
				t.Fatalf("sample target = %q", smp.Target)
			}
			out[smp.Metric] = smp.Value
		}
		return out
	}
	v := vals(first)
	if v[SelfMetricIngestRate] != 0 || v[SelfMetricFitSeconds] != 0 {
		t.Fatalf("first scrape rates = %+v, want zeros", v)
	}
	if v[SelfMetricHeapMB] <= 0 {
		t.Fatal("heap sample not positive")
	}

	// Simulate pipeline activity between scrapes (the repo has no
	// observer attached, so only these explicit bumps move the counters).
	o.Count("metricstore_samples_ingested_total", 120)
	o.ObserveDuration("fit_duration_seconds", 3*time.Second, obs.L("technique", "SARIMAX"))
	o.SetGauge("ingest_inflight", 2)
	o.SetGauge("shipper_queue_depth", 5)

	v = vals(s.Sample(t0.Add(time.Hour)))
	if v[SelfMetricIngestRate] != 120 {
		t.Fatalf("ingest_rate = %v, want 120", v[SelfMetricIngestRate])
	}
	if v[SelfMetricFitSeconds] != 3 {
		t.Fatalf("fit_seconds = %v, want 3", v[SelfMetricFitSeconds])
	}
	if v[SelfMetricQueueDepth] != 7 {
		t.Fatalf("queue_depth = %v, want 7", v[SelfMetricQueueDepth])
	}

	// The series accumulate in the repository under self keys.
	for _, key := range SelfKeys("") {
		k := metricstore.Key{Target: DefaultSelfTarget, Metric: key[len(DefaultSelfTarget)+1:]}
		if got := repo.Count(k); got != 2 {
			t.Fatalf("repo holds %d samples for %s, want 2", got, k)
		}
	}
}
