package obs

import (
	"strings"
	"testing"
	"time"
)

func TestLoggerFormat(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelDebug)
	l.clock = func() time.Time { return time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC) }
	l.Log(LevelInfo, "champion selected", "series", "cdbm011/cpu", "label", "SARIMAX (1,1,1)(1,1,1,24)", "rmse", 3.25)
	got := b.String()
	want := `2020-06-01T12:00:00.000Z INFO champion selected series=cdbm011/cpu label="SARIMAX (1,1,1)(1,1,1,24)" rmse=3.25` + "\n"
	if got != want {
		t.Errorf("log line\n got: %q\nwant: %q", got, want)
	}
}

func TestLoggerLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelWarn)
	l.Log(LevelDebug, "d")
	l.Log(LevelInfo, "i")
	l.Log(LevelWarn, "w")
	l.Log(LevelError, "e")
	out := b.String()
	if strings.Contains(out, "DEBUG") || strings.Contains(out, "INFO") {
		t.Errorf("below-threshold records emitted:\n%s", out)
	}
	if !strings.Contains(out, "WARN w") || !strings.Contains(out, "ERROR e") {
		t.Errorf("threshold records missing:\n%s", out)
	}
}

func TestLoggerOddKeyvals(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.Log(LevelInfo, "msg", "orphan")
	if !strings.Contains(b.String(), "orphan=(MISSING)") {
		t.Errorf("odd keyval not flagged: %q", b.String())
	}
}

// TestNilObserverInert checks every Observer entry point is a no-op on
// nil — the library-default path.
func TestNilObserverInert(t *testing.T) {
	var o *Observer
	o.Debug("x", "k", "v")
	o.Info("x")
	o.Warn("x")
	o.Error("x")
	o.Count("c", 1)
	o.SetGauge("g", 1)
	o.Observe("h", 1)
	o.ObserveDuration("h", time.Second)
	sp := o.StartSpan("root")
	if sp != nil {
		t.Fatal("nil observer returned a live span")
	}
	c := sp.Child("stage")
	c.Set("k", "v")
	c.Fail(errTest())
	c.End()
	sp.End()
	if o.Spans() != nil || o.TakeSpans() != nil {
		t.Error("nil observer holds spans")
	}
	if o.Logger() != nil || o.Registry() != nil {
		t.Error("nil observer exposes facilities")
	}
}

// TestNopPathAllocations is the satellite acceptance check: the
// disabled path must not allocate, so instrumentation can stay inline
// in hot loops.
func TestNopPathAllocations(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		o.Count("models_fitted_total", 1)
		o.Observe("fit_duration_seconds", 0.1)
		sp := o.StartSpan("engine.run")
		c := sp.Child("fit")
		c.Set("rmse", 1)
		c.End()
		sp.End()
		o.Debug("fit done", "rmse", 1.0)
	})
	if allocs > 0 {
		t.Errorf("nop observer path allocates %.1f/op, want 0", allocs)
	}
}

// TestDisabledFacilityAllocations checks a live observer with logging
// only (the capplan -v case) still skips metric work without
// allocating.
func TestDisabledFacilityAllocations(t *testing.T) {
	o := New(Config{}) // nothing enabled, but non-nil
	allocs := testing.AllocsPerRun(1000, func() {
		o.Count("c", 1)
		o.Observe("h", 1)
		sp := o.StartSpan("s")
		sp.End()
	})
	if allocs > 0 {
		t.Errorf("disabled-facility path allocates %.1f/op, want 0", allocs)
	}
}

func TestObserverEndToEnd(t *testing.T) {
	var logs strings.Builder
	o := New(Config{LogWriter: &logs, LogLevel: LevelDebug, Trace: true, Metrics: true})
	o.Info("run start", "series", "s1")
	o.Count("models_fitted_total", 3)
	o.SetGauge("workers", 4)
	o.ObserveDuration("fit_duration_seconds", 120*time.Millisecond, L("technique", "HES"))
	sp := o.StartSpan("engine.run")
	sp.Child("analyse").End()
	sp.End()

	if !strings.Contains(logs.String(), "run start series=s1") {
		t.Errorf("log missing: %q", logs.String())
	}
	if got := o.Registry().CounterValue("models_fitted_total"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if got := o.Registry().Gauge("workers").Value(); got != 4 {
		t.Errorf("gauge = %v, want 4", got)
	}
	if got := o.Registry().Histogram("fit_duration_seconds", L("technique", "HES")).Count(); got != 1 {
		t.Errorf("histogram count = %d, want 1", got)
	}
	if len(o.Spans()) != 1 || o.Spans()[0].Find("analyse") == nil {
		t.Error("trace lost the pipeline spans")
	}
}
