package core

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

func fakeResult(rmse float64) *Result {
	return &Result{
		SeriesName: "db/cpu",
		TestScore:  metrics.Score{RMSE: rmse},
		Forecast: &Prediction{
			Start: t0, Freq: timeseries.Hourly,
			Mean:  []float64{10, 11, 12},
			Lower: []float64{9, 10, 11},
			Upper: []float64{11, 12, 13},
			Level: 0.95,
		},
	}
}

func TestStorePutGet(t *testing.T) {
	s := NewModelStore(StalePolicy{})
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key should not be usable")
	}
	s.Put("db/cpu", fakeResult(5))
	m, ok := s.Get("db/cpu")
	if !ok || m.SelectionRMSE != 5 {
		t.Fatalf("get = %+v, %v", m, ok)
	}
}

func TestStoreWeeklyStaleness(t *testing.T) {
	s := NewModelStore(StalePolicy{})
	now := t0
	s.SetClock(func() time.Time { return now })
	s.Put("db/cpu", fakeResult(5))
	// Six days later: still usable.
	now = t0.Add(6 * 24 * time.Hour)
	if _, ok := s.Get("db/cpu"); !ok {
		t.Fatal("model should be valid within a week")
	}
	// Eight days later: stale — the paper's one-week rule.
	now = t0.Add(8 * 24 * time.Hour)
	if _, ok := s.Get("db/cpu"); ok {
		t.Fatal("model should be stale after a week")
	}
}

func TestStoreCustomMaxAge(t *testing.T) {
	s := NewModelStore(StalePolicy{MaxAge: time.Hour})
	now := t0
	s.SetClock(func() time.Time { return now })
	s.Put("k", fakeResult(1))
	now = t0.Add(2 * time.Hour)
	if _, ok := s.Get("k"); ok {
		t.Fatal("custom MaxAge ignored")
	}
}

func TestStoreRMSEDegradation(t *testing.T) {
	s := NewModelStore(StalePolicy{})
	s.Put("db/cpu", fakeResult(5))
	// Live RMSE within 2×: fine.
	usable, err := s.CheckIn("db/cpu", 8)
	if err != nil || !usable {
		t.Fatalf("usable=%v err=%v", usable, err)
	}
	// Degraded beyond 2×: invalidated, permanently.
	usable, err = s.CheckIn("db/cpu", 11)
	if err != nil || usable {
		t.Fatalf("degraded model still usable (err=%v)", err)
	}
	if _, ok := s.Get("db/cpu"); ok {
		t.Fatal("invalidated model served")
	}
	// Even a good check-in cannot resurrect it.
	usable, _ = s.CheckIn("db/cpu", 1)
	if usable {
		t.Fatal("invalidated model resurrected")
	}
}

func TestStoreCheckInErrors(t *testing.T) {
	s := NewModelStore(StalePolicy{})
	if _, err := s.CheckIn("nope", 1); err == nil {
		t.Fatal("missing key should error")
	}
}

func TestStoreKeys(t *testing.T) {
	s := NewModelStore(StalePolicy{})
	s.Put("a", fakeResult(1))
	s.Put("b", fakeResult(2))
	s.Put("a", fakeResult(3))
	keys := s.Keys()
	sort.Strings(keys)
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys() = %v, want [a b]", keys)
	}
}

func TestStoreInvalidate(t *testing.T) {
	o := obs.New(obs.Config{Metrics: true})
	s := NewModelStore(StalePolicy{})
	s.SetObserver(o)
	s.Put("db/cpu", fakeResult(5))

	if s.Invalidate("ghost", "drift") {
		t.Fatal("unknown key reported invalidated")
	}
	if !s.Invalidate("db/cpu", "drift") {
		t.Fatal("valid model not invalidated")
	}
	if sm, usable := s.Get("db/cpu"); usable || !sm.Invalidated {
		t.Fatalf("after Invalidate: usable=%v invalidated=%v", usable, sm.Invalidated)
	}
	// Idempotent: a second call on an already-invalid model is a no-op.
	if s.Invalidate("db/cpu", "drift") {
		t.Fatal("second Invalidate reported an eviction")
	}
	reg := o.Registry()
	if n := reg.CounterValue("modelstore_invalidations_total"); n != 1 {
		t.Fatalf("modelstore_invalidations_total = %d, want 1", n)
	}
	if n := reg.Counter("modelstore_evictions_total", obs.L("reason", "drift")).Value(); n != 1 {
		t.Fatalf("drift-reason evictions = %d, want 1", n)
	}
	// A refreshed Put clears the flag and becomes usable again.
	s.Put("db/cpu", fakeResult(4))
	if _, usable := s.Get("db/cpu"); !usable {
		t.Fatal("fresh Put after Invalidate should be usable")
	}
}

func TestStoreZeroSelectionRMSENeverDegrades(t *testing.T) {
	s := NewModelStore(StalePolicy{})
	s.Put("k", fakeResult(0))
	usable, err := s.CheckIn("k", math.MaxFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if !usable {
		t.Fatal("zero selection RMSE should disable the degradation check")
	}
}
